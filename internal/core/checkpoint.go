// Superstep checkpoint/recovery (fault tolerance).
//
// Following Distributed GraphLab's observation that BSP engines get cheap
// fault tolerance from snapshotting at superstep boundaries, the engine
// snapshots every worker's state at the barrier — where it is consistent by
// BSP construction — every CheckpointEvery successful supersteps. The
// snapshot is encoded into a CheckpointImage and handed to the configured
// CheckpointStore (in-memory by default, file-backed for durability), so the
// bytes that survive are independent of any worker's live state. When a
// superstep fails (transport error, stalled peer, injected worker crash),
// the engine rolls back to the last stored checkpoint, replays the
// supersteps since then (FLASH steps are deterministic functions of engine
// state, so replay reproduces the exact pre-failure state and the exact
// subsets the driver already holds), and re-executes the failed superstep.
// A *permanent* worker loss (comm.KillError from the chaos transport, or a
// peer declared dead by the liveness layer) additionally triggers a cold
// restart: the victim's partition state is rebuilt from the graph, its
// transport endpoint revived, and its state rehydrated from the stored
// image before replay. Scripted faults are one-shot, and real-world
// transients are by definition unlikely to repeat, so replay normally
// succeeds; a recovery budget stops a persistent fault from looping forever.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"

	"flash/metrics"
)

// replayStep re-executes one superstep for its state effects, writing the
// output subset into a throwaway.
type replayStep[V any] func(out *Subset) error

// runtimeFailure carries an unrecovered superstep error up to Run through
// the paper-shaped, error-free primitive signatures.
type runtimeFailure struct{ err error }

func (r runtimeFailure) Error() string { return r.err.Error() }

// RunResult summarizes a completed (or failed) run: the engine's cumulative
// counters, including transport-level reconnects.
type RunResult = metrics.Counters

// Run executes a FLASH driver program with the engine's fault-tolerance
// machinery engaged: a superstep that fails beyond what retry and
// checkpoint recovery can absorb surfaces here as an error instead of a
// panic, with every worker goroutine already joined and the transport
// aborted cleanly. Structural misuse of the primitives (wrong engine's
// subset, nil reduce in push mode, ...) still panics: those are programming
// errors, not runtime conditions.
func (e *Engine[V]) Run(program func() error) (res RunResult, err error) {
	if e.failed != nil {
		return e.runResult(), e.failed
	}
	if err := e.beginOp(); err != nil {
		return e.runResult(), err
	}
	defer e.endOp()
	defer func() {
		res = e.runResult()
		if r := recover(); r != nil {
			rf, ok := r.(runtimeFailure)
			if !ok {
				panic(r)
			}
			err = rf.err
		}
	}()
	err = program()
	return
}

// runResult copies the engine's counters and adds the transport's
// reconnects. The frontier trace is clipped, not cloned: the engine only
// appends to it, so the copy never sees a later superstep.
func (e *Engine[V]) runResult() RunResult {
	res := e.met
	res.Frontier = slices.Clip(res.Frontier)
	res.Reconnects += e.tr.Stats().Reconnects
	return res
}

// countStep records one superstep entering with the given frontier size.
func (e *Engine[V]) countStep(frontier int) {
	e.met.Supersteps++
	e.met.Frontier = append(e.met.Frontier, frontier)
}

// OnCheckpoint registers driver-side state hooks: save is called when a
// checkpoint is taken and its value is handed back to restore on rollback.
// Algorithms that keep state outside the engine between supersteps (the
// paper's driver-side DSU in BCC/MSF, iteration-scoped accumulators, ...)
// register here so recovery rewinds that state too. Driver state lives next
// to the store image in driver memory — the driver process is the one
// component whose loss the engine cannot survive anyway.
func (e *Engine[V]) OnCheckpoint(save func() any, restore func(any)) {
	e.ckptSave = save
	e.ckptRestore = restore
}

// Err returns the first unrecovered superstep failure, or nil.
func (e *Engine[V]) Err() error { return e.failed }

// execStep runs one superstep with failure handling. exec must be a
// deterministic function of engine state that fills out and performs this
// worker-parallel superstep's exchange rounds. On failure the engine rolls
// back to the last checkpoint — cold-restarting any permanently lost worker
// first — replays the logged supersteps and re-executes exec, up to the
// recovery budget; an unrecovered error marks the engine failed and unwinds
// to Run.
//
//flash:amortized once per superstep, not per element
func (e *Engine[V]) execStep(frontier int, exec replayStep[V]) *Subset {
	if e.resident >= 0 {
		return e.execStepCluster(frontier, exec)
	}
	if e.failed != nil {
		panic(runtimeFailure{fmt.Errorf("core: engine already failed: %w", e.failed)})
	}
	if e.isClosed() {
		// Covers programs whose steps never touch the transport (NoSync-only):
		// the Close-side abort broadcast cannot reach them, so the barrier
		// checks the flag directly.
		e.failed = ErrEngineClosed
		panic(runtimeFailure{ErrEngineClosed})
	}
	ckptOn := e.cfg.CheckpointEvery > 0
	if ckptOn && !e.hasCkpt {
		// The initial checkpoint, taken lazily so driver-side seeding
		// (Engine.Set) before the first superstep is captured.
		if err := e.takeCheckpoint(); err != nil {
			e.failed = err
			panic(runtimeFailure{err})
		}
	}
	e.countStep(frontier)
	out := e.newSubset()
	err := exec(out)
	for err != nil {
		if !e.canRecover(err) {
			e.failed = err
			panic(runtimeFailure{err})
		}
		e.recoveries++
		e.met.Recoveries++
		rstart := time.Now()
		if victim, lost := killedWorker(err); lost {
			e.coldRestart(victim)
		}
		out = e.newSubset()
		err = e.rollbackReplay(exec, out)
		e.met.RecoveryTime += time.Since(rstart)
	}
	out.recount()
	if ckptOn {
		e.replayLog = append(e.replayLog, exec)
		e.stepsSince++
		if e.stepsSince >= e.cfg.CheckpointEvery {
			if err := e.takeCheckpoint(); err != nil {
				e.failed = err
				panic(runtimeFailure{err})
			}
		}
	}
	// The resize policy runs after the step has fully committed (output
	// recounted, checkpoint taken): a membership change here is a pure
	// barrier event, and the subsets the driver holds remap lazily on next
	// use.
	if pol := e.cfg.ResizePolicy; pol != nil {
		want := pol(StepInfo{
			Superstep: e.met.Supersteps,
			Frontier:  out.Size(),
			Workers:   e.cfg.Workers,
			Vertices:  e.g.NumVertices(),
		})
		if want > 0 && want != e.cfg.Workers {
			if err := e.Resize(want); err != nil {
				e.failed = err
				panic(runtimeFailure{err})
			}
		}
	}
	return out
}

// canRecover reports whether err is worth a rollback: checkpointing must be
// on with a stored snapshot in hand, the recovery budget must not be
// exhausted, and the failure must not be a worker panic (deterministic: it
// would fire again on replay).
func (e *Engine[V]) canRecover(err error) bool {
	var wp *workerPanic
	if errors.As(err, &wp) {
		return false
	}
	if errors.Is(err, ErrEngineClosed) {
		// The user tore the engine down; replaying the run would fight Close.
		return false
	}
	if e.resident >= 0 {
		// Cluster mode: recovery is the coordinator's restart-all under a
		// fresh epoch, never an in-process rollback (peer state is remote).
		return false
	}
	return e.cfg.CheckpointEvery > 0 && e.hasCkpt && e.recoveries < e.cfg.MaxRecoveries
}

// rollbackReplay restores the last stored checkpoint, replays the supersteps
// logged since then for their state effects, and re-executes the failed
// superstep into out.
func (e *Engine[V]) rollbackReplay(failed replayStep[V], out *Subset) error {
	start := time.Now()
	e.tr.Reset()
	defer func() { e.met.OtherTime += time.Since(start) }()
	if err := e.restoreCheckpoint(); err != nil {
		return err
	}
	for _, step := range e.replayLog {
		if err := step(e.newSubset()); err != nil {
			return err
		}
	}
	return failed(out)
}

// Worker checkpoint section format (inside a CheckpointImage section):
//
//	slots    uvarint
//	cur      slots × codec-encoded value
//	fwords   uvarint
//	frontier fwords × u64 little-endian
//
// The counts are validated against the live worker on restore, so an image
// taken under a different partitioning or graph is rejected instead of
// silently misapplied.

// encodeWorkerSection serializes worker w's checkpointable state.
func (e *Engine[V]) encodeWorkerSection(w *worker[V]) []byte {
	fwords := w.frontier.Words()
	buf := make([]byte, 0, len(w.cur)*8+len(fwords)*8+16)
	buf = binary.AppendUvarint(buf, uint64(len(w.cur)))
	for i := range w.cur {
		buf = e.codec.Append(buf, &w.cur[i])
	}
	buf = binary.AppendUvarint(buf, uint64(len(fwords)))
	for _, word := range fwords {
		buf = binary.LittleEndian.AppendUint64(buf, word)
	}
	return buf
}

// decodeWorkerSection rehydrates worker w from an encoded section, fully
// validating counts before touching live state.
func (e *Engine[V]) decodeWorkerSection(w *worker[V], sect []byte) error {
	slots, k := binary.Uvarint(sect)
	if k <= 0 || slots != uint64(len(w.cur)) {
		return fmt.Errorf("core: checkpoint section for worker %d has %d slots, want %d",
			w.id, slots, len(w.cur))
	}
	off := k
	for i := range w.cur {
		n, err := e.codec.Decode(sect[off:], &w.cur[i])
		if err != nil {
			return fmt.Errorf("core: checkpoint section for worker %d: slot %d: %w", w.id, i, err)
		}
		off += n
	}
	fwords, k := binary.Uvarint(sect[off:])
	if k <= 0 {
		return fmt.Errorf("core: checkpoint section for worker %d: frontier length missing", w.id)
	}
	off += k
	words := w.frontier.Words()
	if fwords != uint64(len(words)) || len(sect[off:]) != 8*len(words) {
		return fmt.Errorf("core: checkpoint section for worker %d has %d frontier words, want %d",
			w.id, fwords, len(words))
	}
	scratch := make([]uint64, len(words))
	for i := range scratch {
		scratch[i] = binary.LittleEndian.Uint64(sect[off+8*i:])
	}
	w.frontier.SetWords(scratch)
	return nil
}

// takeCheckpoint encodes every worker's cur array and frontier bitmap into a
// CheckpointImage, saves it to the store, snapshots the driver hook state,
// and truncates the replay log: everything before the snapshot can never be
// replayed again.
func (e *Engine[V]) takeCheckpoint() error {
	e.ckptSeq++
	img := &CheckpointImage{Seq: e.ckptSeq, Sections: make([][]byte, len(e.workers))}
	var total uint64
	for i, w := range e.workers {
		img.Sections[i] = e.encodeWorkerSection(w)
		total += uint64(len(img.Sections[i]))
	}
	if err := e.store.Save(img); err != nil {
		return fmt.Errorf("core: checkpoint %d: %w", e.ckptSeq, err)
	}
	if e.ckptSave != nil {
		e.ckptDrv = e.ckptSave()
		e.ckptHasDrv = true
	}
	e.hasCkpt = true
	e.replayLog = e.replayLog[:0]
	e.stepsSince = 0
	e.met.Checkpoints++
	e.met.CheckpointBytes += total
	return nil
}

// restoreCheckpoint loads the stored image, rehydrates every worker from its
// section, and clears per-superstep scratch state so replay starts from a
// barrier-clean slate. Restore is all-or-nothing per worker section: a
// mismatched or corrupt section fails before live state for later workers is
// touched, and the store itself already rejects torn or bit-flipped files.
func (e *Engine[V]) restoreCheckpoint() error {
	img, err := e.store.Load()
	if err != nil {
		return fmt.Errorf("core: checkpoint restore: %w", err)
	}
	if img == nil {
		return fmt.Errorf("core: checkpoint restore: store has no image")
	}
	if len(img.Sections) != len(e.workers) {
		return fmt.Errorf("core: checkpoint image has %d sections, want %d",
			len(img.Sections), len(e.workers))
	}
	for i, w := range e.workers {
		if err := e.decodeWorkerSection(w, img.Sections[i]); err != nil {
			return err
		}
		w.nextSet.Reset()
		for t := range w.acc {
			if w.acc[t].set != nil {
				w.acc[t].set.Reset()
			}
		}
		w.pendSet.Reset()
		w.discardEnc() // unshipped frames back to the pool, delta bases reset
	}
	if e.ckptHasDrv && e.ckptRestore != nil {
		e.ckptRestore(e.ckptDrv)
	}
	return nil
}
