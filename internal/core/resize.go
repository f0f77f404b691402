// Elastic worker membership: the planned membership-change protocol.
//
// Resize(n) changes the worker count of a live engine at a superstep barrier.
// The protocol is built from PR 5's fault-tolerance primitives and keeps the
// run byte-identical to one that used the final membership from the start:
//
//  1. Quiesce. Resize only runs between supersteps (the driver thread owns
//     the barrier), so no worker holds an exchange round open.
//  2. Durable pre-resize image. With checkpointing on, a fresh checkpoint is
//     taken first; it is the rollback target if the resize itself fails.
//  3. Union transport. The transport grows to max(old, new) workers under a
//     fresh membership epoch, so every sender and receiver of the migration
//     round has a live endpoint (and a heartbeater announcing liveness).
//  4. New membership build. The new placement, partition (partition.Shell +
//     Rebuild per worker — the cold-restart path) and zeroed workers are
//     constructed beside the old ones; nothing is installed yet.
//  5. Migration round. Every old worker walks its masters in ascending local
//     order, packs (gid, value) runs per destination, and ships each as a
//     FLASHCKP checkpoint container — CRC-protected, so a corrupt migration
//     frame is detected at decode, not applied. Receivers validate ownership
//     and count: a lost frame surfaces as a count mismatch, never a hang.
//     The round is bracketed with comm.ResizePhase so scripted mid-migration
//     faults (kills, corruption, delays) fire exactly in this window.
//  6. Install + resync. The transport shrinks to the final membership, the
//     new placement/partition/workers are installed under a new subset
//     epoch, and one broadcast-style sync round rebuilds every mirror from
//     the migrated masters. Old workers' thread pools are joined.
//  7. Post-resize image. A fresh checkpoint captures the new layout and
//     truncates the replay log: recovery never replays across a membership
//     change.
//
// Failure at any point before the final install rolls back: the old
// membership objects (still intact) are reinstalled, a permanently killed
// worker is revived and cold-rebuilt, the transport returns to the old size,
// and state is restored from the pre-resize image. Retries share
// MaxRecoveries with ordinary rollback recovery, so a persistent fault
// cannot loop a resize forever.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"flash/graph"
	"flash/internal/bitset"
	"flash/internal/comm"
	"flash/internal/partition"
)

// membership is a snapshot of the engine fields a resize replaces, kept for
// rollback.
type membership[V any] struct {
	workers    int
	place      partition.Placement
	part       *partition.Partitioned
	partShared bool
	ws         []*worker[V]
}

func (e *Engine[V]) membership() membership[V] {
	return membership[V]{workers: e.cfg.Workers, place: e.place, part: e.part,
		partShared: e.partShared, ws: e.workers}
}

// Resize changes the engine's worker count to n at the current superstep
// barrier, migrating master state between the old and new partitions. The
// transport must implement comm.Resizer. With checkpointing enabled the
// resize is crash-safe: a failure mid-migration (including a permanent
// worker kill) rolls back to the pre-resize image and retries under the
// shared MaxRecoveries budget. Without checkpointing a failed resize marks
// the engine failed.
func (e *Engine[V]) Resize(n int) error {
	if err := e.beginOp(); err != nil {
		return err
	}
	defer e.endOp()
	if e.failed != nil {
		return e.failed
	}
	if n < 1 {
		return &ConfigError{"Workers", fmt.Sprintf("must be >= 1, got %d (Resize)", n)}
	}
	if e.resident >= 0 {
		// Cluster membership is the coordinator's to change: it respawns the
		// fleet under a fresh epoch instead of migrating state in place.
		return &ConfigError{"Workers", "resize unsupported in cluster mode"}
	}
	if n == e.cfg.Workers {
		return nil
	}
	if _, ok := e.tr.(comm.Resizer); !ok {
		// Terminal, not recoverable: retrying cannot make the transport grow
		// the capability.
		err := fmt.Errorf("core: transport %T does not support membership resize", e.tr)
		e.failed = err
		return err
	}
	start := time.Now()
	ckptOn := e.cfg.CheckpointEvery > 0
	if ckptOn {
		// The durable rollback target: state as of this barrier.
		if err := e.takeCheckpoint(); err != nil {
			e.failed = err
			return err
		}
	}
	old := e.membership()
	for {
		err := e.doResize(n)
		if err == nil {
			break
		}
		if !e.canRecover(err) {
			e.failed = fmt.Errorf("core: resize to %d workers failed: %w", n, err)
			return e.failed
		}
		e.recoveries++
		e.met.Recoveries++
		rstart := time.Now()
		rbErr := e.rollbackResize(old, err)
		e.met.RecoveryTime += time.Since(rstart)
		if rbErr != nil {
			e.failed = fmt.Errorf("core: resize rollback failed: %w", rbErr)
			return e.failed
		}
	}
	e.met.Resizes++
	e.met.ResizeTime += time.Since(start)
	if ckptOn {
		// Capture the new layout; everything before the membership change
		// leaves the replay log, so recovery never replays across epochs.
		if err := e.takeCheckpoint(); err != nil {
			e.failed = err
			return err
		}
	}
	return nil
}

// doResize performs one resize attempt. On error the engine's installed
// membership may be partially replaced; rollbackResize repairs it.
func (e *Engine[V]) doResize(n int) error {
	oldN := e.cfg.Workers
	maxN := oldN
	if n > maxN {
		maxN = n
	}
	rz := e.tr.(comm.Resizer)

	// Union membership: both the leaving senders and the joining receivers
	// need live endpoints (and heartbeaters) for the migration round.
	e.stopHeartbeaters()
	if err := rz.Resize(maxN); err != nil {
		e.startHeartbeatersN(oldN)
		return err
	}
	e.startHeartbeatersN(maxN)

	newPlace := e.makePlacement(n)
	newPart := partition.Shell(e.topo(), newPlace)
	for w := 0; w < n; w++ {
		newPart.Rebuild(w)
	}
	newWorkers := make([]*worker[V], n)
	for w := 0; w < n; w++ {
		newWorkers[w] = e.newWorkerAt(w, newPart, newPlace, n)
	}

	if rp, ok := e.tr.(comm.ResizePhaser); ok {
		rp.ResizePhase(true)
	}
	err := e.migrate(oldN, n, maxN, newPlace, newWorkers)
	if rp, ok := e.tr.(comm.ResizePhaser); ok {
		rp.ResizePhase(false)
	}
	if err != nil {
		stopPools(newWorkers)
		return err
	}

	if n < maxN {
		// Shrink to the final membership; retired endpoints disappear.
		e.stopHeartbeaters()
		if err := rz.Resize(n); err != nil {
			e.startHeartbeatersN(oldN)
			stopPools(newWorkers)
			return err
		}
		e.startHeartbeatersN(n)
	}

	// Install the new membership and open a fresh subset epoch. The new
	// partition was built privately (Shell + Rebuild), so a previously
	// catalog-shared engine owns its partition from here on.
	oldWorkers := e.workers
	e.cfg.Workers = n
	e.part = newPart
	e.partShared = false
	e.workers = newWorkers
	e.pushEpoch(newPlace)

	// Mirrors start zeroed on every new worker; one broadcast-shaped sync of
	// all masters rebuilds them from the migrated values.
	if err := e.resyncMirrors(); err != nil {
		return err
	}
	stopPools(oldWorkers)
	return nil
}

// migrate runs the migration exchange round over the union membership:
// participants [0, oldN) send their masters to the new owners, participants
// [0, newN) receive theirs; everyone marks end-of-round so the barrier
// closes. Error propagation mirrors parallelWorkers: the first failure
// aborts the transport so blocked peers unwind, a killed participant dies
// silently (the liveness layer reports it), and the returned error is the
// root cause.
func (e *Engine[V]) migrate(oldN, newN, maxN int, newPlace partition.Placement, newWorkers []*worker[V]) error {
	errs := make([]error, maxN)
	var migrated atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < maxN; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[p] = &workerPanic{worker: p, value: r, stack: debug.Stack()}
					e.tr.Abort(comm.ErrAborted)
				}
			}()
			if err := e.migrateWorker(p, oldN, newN, newPlace, newWorkers, &migrated); err != nil {
				errs[p] = err
				var ke *comm.KillError
				if errors.As(err, &ke) && ke.Worker == p {
					return // silent death; peers detect it through liveness
				}
				e.tr.Abort(comm.ErrAborted)
			}
		}()
	}
	wg.Wait()
	e.met.MigratedBytes += migrated.Load()
	// Senders counted their migration traffic (and retries) into the old
	// workers' counters, which are discarded on success — fold them now.
	e.foldCounters(e.workers[:oldN])
	var secondary error
	for p, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, comm.ErrAborted) {
			return fmt.Errorf("core: migration participant %d: %w", p, err)
		}
		if secondary == nil {
			secondary = fmt.Errorf("core: migration participant %d: %w", p, err)
		}
	}
	return secondary
}

// migrateWorker is one participant's half-rounds of the migration exchange.
// Senders walk their masters in ascending local order and pack one
// FLASHCKP-framed section per destination — (gid uvarint, codec value) runs
// — so the payload is CRC-protected end to end and byte-deterministic.
// Receivers validate every master against the new placement and fail on a
// count mismatch instead of hanging a barrier.
func (e *Engine[V]) migrateWorker(p, oldN, newN int, newPlace partition.Placement, newWorkers []*worker[V], migrated *atomic.Uint64) error {
	if p < oldN {
		w := e.workers[p]
		secs := make([][]byte, newN)
		for l := 0; l < e.place.LocalCount(p); l++ {
			gid := e.place.GlobalID(p, l)
			dst := newPlace.Owner(gid)
			secs[dst] = binary.AppendUvarint(secs[dst], uint64(gid))
			secs[dst] = e.codec.Append(secs[dst], &w.cur[l])
		}
		for dst, sect := range secs {
			if sect == nil {
				continue
			}
			frame := EncodeCheckpointFile(&CheckpointImage{Seq: uint64(p), Sections: [][]byte{sect}})
			if err := w.send(dst, frame); err != nil {
				return err
			}
			migrated.Add(uint64(len(frame)))
		}
	}
	if err := e.tr.EndRound(p); err != nil {
		return err
	}
	if p >= newN {
		// A leaving worker has nothing to receive; its endpoint is retired by
		// the post-migration shrink.
		return nil
	}
	nw := newWorkers[p]
	want := newPlace.LocalCount(p)
	got := 0
	var decodeErr error
	drainErr := e.tr.Drain(p, func(from int, data []byte) {
		if decodeErr != nil {
			return
		}
		img, err := DecodeCheckpointFile(data)
		if err != nil {
			decodeErr = fmt.Errorf("core: migration frame from worker %d: %w", from, err)
			return
		}
		for _, sect := range img.Sections {
			for len(sect) > 0 {
				gid64, k := binary.Uvarint(sect)
				if k <= 0 {
					decodeErr = fmt.Errorf("core: migration frame from worker %d: bad master id", from)
					return
				}
				sect = sect[k:]
				gid := graph.VID(gid64)
				if int(gid64) >= e.g.NumVertices() || newPlace.Owner(gid) != p {
					decodeErr = fmt.Errorf("core: migrated master %d does not belong to worker %d", gid64, p)
					return
				}
				nb, err := e.codec.Decode(sect, &nw.cur[newPlace.LocalIndex(gid)])
				if err != nil {
					decodeErr = fmt.Errorf("core: migration frame from worker %d: master %d: %w", from, gid64, err)
					return
				}
				sect = sect[nb:]
				got++
			}
		}
	})
	if drainErr != nil {
		return drainErr
	}
	if decodeErr != nil {
		return decodeErr
	}
	if got != want {
		return fmt.Errorf("core: worker %d received %d migrated masters, want %d", p, got, want)
	}
	return nil
}

// resyncMirrors rebuilds every mirror on the freshly installed membership by
// syncing all masters in one round. Mirror slots are the only state the
// migration round does not carry (they are derivable), so this single
// exchange completes the new workers' views.
func (e *Engine[V]) resyncMirrors() error {
	scope := e.scopeFor(true, false)
	return e.parallelWorkers(func(w *worker[V]) error {
		all := bitset.New(e.place.LocalCount(w.id))
		all.Fill()
		return w.syncMasters(all, scope)
	})
}

// rollbackResize reinstalls the old membership after a failed resize attempt
// and restores worker state from the pre-resize image: the inverse of
// whatever prefix of doResize ran. A permanently killed worker is revived
// and rebuilt through the cold-restart path before the restore.
func (e *Engine[V]) rollbackResize(old membership[V], cause error) error {
	e.stopHeartbeaters()
	if !sameWorkers(e.workers, old.ws) {
		// The failure hit after install: the new workers own started pools.
		stopPools(e.workers)
	}
	e.cfg.Workers = old.workers
	e.part = old.part
	e.partShared = old.partShared
	e.workers = old.ws
	if e.place != old.place {
		// Reinstalled under a fresh epoch so subsets stamped with the aborted
		// epoch still remap forward through the history.
		e.pushEpoch(old.place)
	}
	rz := e.tr.(comm.Resizer)
	if err := rz.Resize(old.workers); err != nil {
		return err
	}
	if victim, lost := killedWorker(cause); lost && victim < old.workers {
		e.privatizePart()
		e.part.Rebuild(victim)
		e.workers[victim] = e.newWorker(victim)
		if rv, ok := e.tr.(comm.Reviver); ok {
			rv.Revive(victim)
		}
		e.met.Restarts++
	}
	if err := e.restoreCheckpoint(); err != nil {
		return err
	}
	e.startHeartbeatersN(old.workers)
	return nil
}

// pushEpoch installs place as the current placement under a new membership
// epoch. The history only grows, so any live subset's stamp stays
// resolvable.
func (e *Engine[V]) pushEpoch(place partition.Placement) {
	e.placeHist = append(e.placeHist, place)
	e.memberEpoch = len(e.placeHist) - 1
	e.place = place
}

// makePlacement builds the engine's configured placement flavor for n
// workers.
func (e *Engine[V]) makePlacement(n int) partition.Placement {
	if e.cfg.UseHashPlacement {
		return partition.NewHash(e.g.NumVertices(), n)
	}
	return partition.NewRange(e.g.NumVertices(), n)
}

// stopPools joins and clears the parfor pools of ws. A stopped pool must
// never be reused (parforT would send on a closed channel), so the field is
// nilled.
func stopPools[V any](ws []*worker[V]) {
	for _, w := range ws {
		if w != nil && w.pool != nil {
			w.pool.stop()
			w.pool = nil
		}
	}
}

// sameWorkers reports whether a and b are the same worker slice (rollback
// uses it to tell pre-install from post-install failures).
func sameWorkers[V any](a, b []*worker[V]) bool {
	return len(a) == len(b) && (len(a) == 0 || a[0] == b[0])
}
