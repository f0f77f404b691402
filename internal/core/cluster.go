// Cluster (multi-process SPMD) execution.
//
// In cluster mode every worker process runs the *same* driver program over
// the same deterministically-built graph and partition, but computes only
// its resident worker; the other workers are shells (placement metadata
// only). Correctness rests on two invariants the in-process engine already
// has and this file extends across processes:
//
//  1. Replicated driver decisions. The driver branches only on subset sizes
//     and Gather/Fold results. Subset sizes are made identical everywhere by
//     a per-superstep control round that broadcasts each resident's output
//     bits (shareStepOutput); Gather runs as a live allgather of master
//     values applied in ascending vertex order, so folds are byte-identical
//     regardless of placement.
//
//  2. Deterministic replay. Both outcomes — the merged output subset of
//     each superstep and the value array of each Gather — are appended to
//     the WorkerStore's log, so a respawned process fast-forwards through
//     the driver by popping records instead of recomputing, then goes live
//     exactly at the frontier, with its transport round counter at zero just
//     like every surviving peer after the coordinator's restart-all.
//
// In-process rollback recovery is disabled (canRecover is false in cluster
// mode): a failed superstep unwinds out of Run, the process exits with a
// classification code, and the coordinator restarts the fleet under a fresh
// membership epoch resuming from min(latest checkpoint).
package core

import (
	"encoding/binary"
	"fmt"

	"flash/graph"
	"flash/internal/comm"
)

// ClusterSpec switches an Engine into cluster mode.
type ClusterSpec struct {
	// Resident is the worker this process computes. Workers other than
	// Resident are shells: they hold the shared partition metadata but no
	// property state, and their supersteps run in peer processes.
	Resident int
	// Store is the process's durable checkpoint-plus-log store. nil runs
	// without durability (a restarted fleet recomputes from scratch).
	Store *WorkerStore
	// ResumeSeq is the checkpoint sequence to fast-forward from; 0 starts
	// fresh. The coordinator picks min over the fleet's registered latest
	// sequences so every process resumes from the same synchronization
	// point.
	ResumeSeq uint64
}

// clusterMeta is the second section of a cluster checkpoint image: enough to
// validate the image against the live configuration and to locate the log
// prefix the image corresponds to.
type clusterMeta struct {
	workers  int
	resident int
	records  uint64 // log records at the instant the image was taken
}

func encodeClusterMeta(m clusterMeta) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(m.workers))
	binary.LittleEndian.PutUint32(buf[4:8], uint32(m.resident))
	binary.LittleEndian.PutUint64(buf[8:16], m.records)
	return buf
}

func decodeClusterMeta(b []byte) (clusterMeta, error) {
	if len(b) != 16 {
		return clusterMeta{}, fmt.Errorf("core: cluster checkpoint meta is %d bytes, want 16", len(b))
	}
	return clusterMeta{
		workers:  int(binary.LittleEndian.Uint32(b[0:4])),
		resident: int(binary.LittleEndian.Uint32(b[4:8])),
		records:  binary.LittleEndian.Uint64(b[8:16]),
	}, nil
}

// initCluster prepares the durable side of cluster mode after the workers
// are built: a fresh run clears stale state from a previous incarnation, a
// resume loads the image, truncates the log to the image's record count, and
// arms fast-forward replay.
func (e *Engine[V]) initCluster() error {
	spec := e.cfg.Cluster
	e.cstore = spec.Store
	if e.cstore == nil {
		return nil
	}
	if spec.ResumeSeq == 0 {
		return e.cstore.reset()
	}
	img, err := e.cstore.loadImage(spec.ResumeSeq)
	if err != nil {
		return err
	}
	if len(img.Sections) != 2 {
		return fmt.Errorf("core: cluster checkpoint %d has %d sections, want 2", spec.ResumeSeq, len(img.Sections))
	}
	meta, err := decodeClusterMeta(img.Sections[1])
	if err != nil {
		return err
	}
	if meta.workers != e.cfg.Workers || meta.resident != e.resident {
		return fmt.Errorf("core: cluster checkpoint %d was taken by worker %d of %d; this process is worker %d of %d",
			spec.ResumeSeq, meta.resident, meta.workers, e.resident, e.cfg.Workers)
	}
	recs, err := e.cstore.replay(meta.records)
	if err != nil {
		return err
	}
	// Install the image's values now: fast-forward never executes supersteps
	// (so nothing reads them early), and once the replayed records run out
	// the state is exactly the live frontier's.
	if err := e.decodeWorkerSection(e.workers[e.resident], img.Sections[0]); err != nil {
		return err
	}
	e.ffRecs = recs
	e.ckptSeq = spec.ResumeSeq
	e.hasCkpt = true
	return nil
}

// clusterFail marks the engine failed and unwinds to Run. Cluster failures
// are never recovered in-process; the exit code tells the coordinator what
// to do.
func (e *Engine[V]) clusterFail(err error) {
	e.failed = err
	panic(runtimeFailure{err})
}

// execStepCluster is execStep for cluster mode: fast-forward from the log
// when resuming, otherwise execute the resident's share, replicate the
// output subset with a control round, log the outcome, and checkpoint on
// the shared deterministic cadence.
func (e *Engine[V]) execStepCluster(frontier int, exec replayStep[V]) *Subset {
	if e.failed != nil {
		panic(runtimeFailure{fmt.Errorf("core: engine already failed: %w", e.failed)})
	}
	if e.isClosed() {
		e.failed = ErrEngineClosed
		panic(runtimeFailure{ErrEngineClosed})
	}
	if e.ffPos < len(e.ffRecs) {
		rec := e.ffRecs[e.ffPos]
		e.ffPos++
		if rec.kind != logKindStep {
			e.clusterFail(fmt.Errorf("core: cluster log diverged: record %d is kind %d, want step", e.ffPos-1, rec.kind))
		}
		out := e.newSubset()
		if err := e.decodeStepRecord(rec.payload, out); err != nil {
			e.clusterFail(err)
		}
		e.countStep(frontier)
		out.recount()
		return out
	}
	if e.cstore != nil && !e.hasCkpt {
		// The initial checkpoint, taken lazily so driver-side seeding before
		// the first superstep is captured. Its record count is zero: resuming
		// from it replays the whole log... which is empty.
		if err := e.takeClusterCheckpoint(); err != nil {
			e.clusterFail(err)
		}
	}
	e.countStep(frontier)
	out := e.newSubset()
	err := exec(out)
	if err == nil {
		err = e.shareStepOutput(out)
	}
	if err != nil {
		e.clusterFail(err)
	}
	out.recount()
	if e.cstore != nil {
		if err := e.cstore.appendRecord(logKindStep, e.encodeStepRecord(out)); err != nil {
			e.clusterFail(err)
		}
		e.stepsSince++
		if e.cfg.CheckpointEvery > 0 && e.stepsSince >= e.cfg.CheckpointEvery {
			if err := e.takeClusterCheckpoint(); err != nil {
				e.clusterFail(err)
			}
		}
	}
	return out
}

// shareStepOutput is the control round that replicates the superstep's
// output subset across the fleet: each process broadcasts its resident's
// bits as one frontier frame and ORs the peers' frames in, so every process
// ends the superstep with the identical subset (sizes, densities and
// termination tests then agree everywhere).
func (e *Engine[V]) shareStepOutput(out *Subset) error {
	if e.cfg.Workers == 1 {
		return nil
	}
	w := e.workers[e.resident]
	words := out.local[e.resident].Words()
	lo, hi := 0, len(words)
	for lo < hi && words[lo] == 0 {
		lo++
	}
	for hi > lo && words[hi-1] == 0 {
		hi--
	}
	if hi > lo {
		w.fenc = encodeFrontier(w.fenc, words, lo, hi)
		for to := 0; to < e.cfg.Workers; to++ {
			if to == e.resident {
				continue
			}
			payload := comm.GetBufN(len(w.fenc))
			copy(payload, w.fenc)
			if err := w.send(to, payload); err != nil {
				return err
			}
		}
	}
	if err := e.tr.EndRound(w.id); err != nil {
		return err
	}
	var frameErr error
	drainErr := e.tr.Drain(w.id, func(from int, data []byte) {
		if from == w.id || frameErr != nil {
			return
		}
		if err := decodeFrontier(data, out.local[from].Words()); err != nil {
			frameErr = err
		}
	})
	e.foldCounters(e.workers[w.id : w.id+1])
	if drainErr != nil {
		return drainErr
	}
	return frameErr
}

// Step record layout: per worker, uvarint frame length followed by that many
// frontier-frame bytes; length 0 encodes an empty per-worker subset.

// encodeStepRecord serializes the fully-replicated output subset.
func (e *Engine[V]) encodeStepRecord(out *Subset) []byte {
	var buf []byte
	var scratch []byte
	for wi := 0; wi < e.cfg.Workers; wi++ {
		words := out.local[wi].Words()
		lo, hi := 0, len(words)
		for lo < hi && words[lo] == 0 {
			lo++
		}
		for hi > lo && words[hi-1] == 0 {
			hi--
		}
		if hi == lo {
			buf = binary.AppendUvarint(buf, 0)
			continue
		}
		scratch = encodeFrontier(scratch, words, lo, hi)
		buf = binary.AppendUvarint(buf, uint64(len(scratch)))
		buf = append(buf, scratch...)
	}
	return buf
}

// decodeStepRecord rehydrates a logged output subset (out must be freshly
// allocated: frames are OR'd in).
func (e *Engine[V]) decodeStepRecord(payload []byte, out *Subset) error {
	off := 0
	for wi := 0; wi < e.cfg.Workers; wi++ {
		n, k := binary.Uvarint(payload[off:])
		if k <= 0 || off+k+int(n) > len(payload) {
			return fmt.Errorf("core: cluster step record truncated at worker %d", wi)
		}
		off += k
		if n == 0 {
			continue
		}
		if err := decodeFrontier(payload[off:off+int(n)], out.local[wi].Words()); err != nil {
			return fmt.Errorf("core: cluster step record, worker %d: %w", wi, err)
		}
		off += int(n)
	}
	if off != len(payload) {
		return fmt.Errorf("core: cluster step record has %d trailing bytes", len(payload)-off)
	}
	return nil
}

// gatherCluster is driver-side Gather in cluster mode: a live allgather of
// master values. Every process sends its resident's masters to every peer in
// ascending local order, rebuilds the full value array, and applies f in
// ascending vertex order — so a Fold computes the identical byte-for-byte
// result in every process regardless of which vertices it masters. The
// outcome is logged for fast-forward, exactly like a superstep's subset.
func (e *Engine[V]) gatherCluster(f func(v graph.VID, val *V)) {
	n := e.g.NumVertices()
	if e.ffPos < len(e.ffRecs) {
		rec := e.ffRecs[e.ffPos]
		e.ffPos++
		if rec.kind != logKindGather {
			e.clusterFail(fmt.Errorf("core: cluster log diverged: record %d is kind %d, want gather", e.ffPos-1, rec.kind))
		}
		off := 0
		var val V
		for v := 0; v < n; v++ {
			k, err := e.codec.Decode(rec.payload[off:], &val)
			if err != nil {
				e.clusterFail(fmt.Errorf("core: cluster gather record, vertex %d: %w", v, err))
			}
			off += k
			f(graph.VID(v), &val)
		}
		if off != len(rec.payload) {
			e.clusterFail(fmt.Errorf("core: cluster gather record has %d trailing bytes", len(rec.payload)-off))
		}
		return
	}
	w := e.workers[e.resident]
	masters := e.place.LocalCount(e.resident)
	vals := make([]V, n)
	if e.cfg.Workers > 1 {
		var sendErr error
		for l := 0; l < masters && sendErr == nil; l++ {
			gid := e.place.GlobalID(e.resident, l)
			for to := 0; to < e.cfg.Workers; to++ {
				if to == e.resident {
					continue
				}
				if sendErr = w.appendKV(to, gid, &w.cur[l]); sendErr != nil {
					break
				}
			}
		}
		if sendErr == nil {
			sendErr = w.flushAll()
		}
		if sendErr == nil {
			sendErr = e.tr.EndRound(w.id)
		}
		if sendErr != nil {
			e.clusterFail(sendErr)
		}
		got := 0
		var badErr error
		drainErr := w.drainKV(func(gid graph.VID, val *V) {
			if int(gid) >= n {
				if badErr == nil {
					badErr = fmt.Errorf("core: cluster gather received vertex %d of %d", gid, n)
				}
				return
			}
			vals[gid] = *val
			got++
		})
		e.foldCounters(e.workers[w.id : w.id+1])
		if drainErr != nil {
			e.clusterFail(drainErr)
		}
		if badErr != nil {
			e.clusterFail(badErr)
		}
		if got != n-masters {
			e.clusterFail(fmt.Errorf("core: cluster gather received %d of %d remote masters", got, n-masters))
		}
	}
	for l := 0; l < masters; l++ {
		vals[e.place.GlobalID(e.resident, l)] = w.cur[l]
	}
	for v := 0; v < n; v++ {
		f(graph.VID(v), &vals[v])
	}
	if e.cstore != nil {
		buf := make([]byte, 0, n*8)
		for v := range vals {
			buf = e.codec.Append(buf, &vals[v])
		}
		if err := e.cstore.appendRecord(logKindGather, buf); err != nil {
			e.clusterFail(err)
		}
	}
}

// takeClusterCheckpoint saves the resident's section plus the metadata that
// pins the image to its log prefix. The cadence (CheckpointEvery successful
// supersteps, counted identically by the deterministic driver in every
// process) guarantees every worker's image at sequence S freezes the same
// record count, which is what makes min(latest) a consistent resume point.
func (e *Engine[V]) takeClusterCheckpoint() error {
	w := e.workers[e.resident]
	sect := e.encodeWorkerSection(w)
	meta := encodeClusterMeta(clusterMeta{
		workers:  e.cfg.Workers,
		resident: e.resident,
		records:  e.cstore.records(),
	})
	e.ckptSeq++
	img := &CheckpointImage{Seq: e.ckptSeq, Sections: [][]byte{sect, meta}}
	if err := e.cstore.saveImage(img); err != nil {
		e.ckptSeq--
		return fmt.Errorf("core: cluster checkpoint: %w", err)
	}
	e.hasCkpt = true
	e.stepsSince = 0
	e.met.Checkpoints++
	e.met.CheckpointBytes += uint64(len(sect) + len(meta))
	return nil
}
