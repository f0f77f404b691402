// Cold worker restart and the liveness heartbeat loop.
//
// A transient fault (dropped frame, crash mid-superstep) is handled by
// rollback+replay alone: the worker's in-memory state survives and the
// checkpoint merely rewinds it. A *permanent* loss is different — the
// worker's slot state is gone and its transport endpoint is dead, so before
// replay can run the engine must rebuild the worker from first principles:
// recompute its partition view from the graph (partition.Rebuild), allocate
// a fresh worker with zeroed state (newWorker), revive its transport
// endpoint, and let restoreCheckpoint rehydrate the state from the durable
// image. Peers learn about the death through the liveness layer: each worker
// runs a background heartbeater, and a drain deadline that expires while a
// peer's heartbeat clock is stale classifies the peer as dead
// (comm.ErrPeerDead) instead of merely stalled.
package core

import (
	"errors"
	"time"

	"flash/internal/comm"
)

// killedWorker extracts the identity of a permanently lost worker from a
// superstep error: either the victim's own comm.KillError (its goroutine
// observed its death directly) or a peer's comm.ErrPeerDead verdict from the
// liveness layer.
func killedWorker(err error) (int, bool) {
	var ke *comm.KillError
	if errors.As(err, &ke) {
		return ke.Worker, true
	}
	var we *comm.WorkerError
	if errors.As(err, &we) && errors.Is(we.Err, comm.ErrPeerDead) {
		return we.Worker, true
	}
	return 0, false
}

// coldRestart rebuilds permanently lost worker victim from scratch. On
// return the victim has a fresh zeroed worker whose layout matches the
// pre-death one (the partition is a pure function of graph and placement),
// its transport endpoint is revived, and its heartbeater is running again;
// the caller's rollbackReplay then rehydrates the state from the stored
// checkpoint image. Restarts share the recovery budget with ordinary
// rollbacks and back off exponentially like send retries, so a worker that
// keeps dying does not hot-loop.
func (e *Engine[V]) coldRestart(victim int) {
	if backoff := e.restartBackoff(); backoff > 0 {
		time.Sleep(backoff)
	}
	e.stopHeartbeater(victim)
	old := e.workers[victim]
	if old != nil && old.pool != nil {
		old.pool.stop()
	}
	e.privatizePart()
	e.part.Rebuild(victim)
	e.workers[victim] = e.newWorker(victim)
	if rv, ok := e.tr.(comm.Reviver); ok {
		rv.Revive(victim)
	}
	e.startHeartbeater(victim)
	e.met.Restarts++
}

// restartBackoff scales the configured retry backoff exponentially with the
// recovery count (the first restart is immediate), capped like send retry.
func (e *Engine[V]) restartBackoff() time.Duration {
	if e.recoveries <= 1 {
		return 0
	}
	backoff := e.cfg.RetryBackoff
	for i := 2; i < e.recoveries && backoff < 100*e.cfg.RetryBackoff; i++ {
		backoff *= 2
	}
	if backoff > 100*e.cfg.RetryBackoff {
		backoff = 100 * e.cfg.RetryBackoff
	}
	return backoff
}

// startHeartbeaters launches one background heartbeater per worker when
// HeartbeatEvery is configured.
func (e *Engine[V]) startHeartbeaters() {
	e.startHeartbeatersN(len(e.workers))
}

// startHeartbeatersN launches heartbeaters for workers [0, n). Resize uses an
// explicit n because migration runs with the transport grown to
// max(old, new) workers while e.workers still holds the old membership —
// every endpoint that participates in a round must announce liveness, or the
// drain deadline would misclassify a joining worker as dead.
func (e *Engine[V]) startHeartbeatersN(n int) {
	if e.cfg.HeartbeatEvery <= 0 {
		return
	}
	e.hbStop = make([]chan struct{}, n)
	e.hbDone = make([]chan struct{}, n)
	for w := 0; w < n; w++ {
		if e.resident >= 0 && w != e.resident {
			continue // cluster shell: the owning process heartbeats for it
		}
		e.startHeartbeater(w)
	}
}

// startHeartbeater runs worker w's liveness loop: a ticker that stamps w's
// heartbeat clock on every peer through the transport. The loop exits when
// stopped, when the transport reports w's permanent death (KillError — the
// silence is the signal peers classify as ErrPeerDead), or when the
// transport is closed.
func (e *Engine[V]) startHeartbeater(w int) {
	if e.cfg.HeartbeatEvery <= 0 || e.hbStop == nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	e.hbStop[w] = stop
	e.hbDone[w] = done
	go func() {
		defer close(done)
		// Announce liveness immediately: arming the peer-side classification
		// clock must not wait for the first tick, or a worker that dies
		// within the first interval could never be told apart from a stall.
		if err := e.tr.Heartbeat(w); err != nil {
			var ke *comm.KillError
			if errors.As(err, &ke) {
				return
			}
		}
		ticker := time.NewTicker(e.cfg.HeartbeatEvery)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				err := e.tr.Heartbeat(w)
				var ke *comm.KillError
				if errors.As(err, &ke) {
					return
				}
			}
		}
	}()
}

// stopHeartbeater stops and joins worker w's heartbeater, if running.
func (e *Engine[V]) stopHeartbeater(w int) {
	if e.hbStop == nil || e.hbStop[w] == nil {
		return
	}
	close(e.hbStop[w])
	<-e.hbDone[w]
	e.hbStop[w], e.hbDone[w] = nil, nil
}

// stopHeartbeaters stops every running heartbeater (Engine.Close).
func (e *Engine[V]) stopHeartbeaters() {
	if e.hbStop == nil {
		return
	}
	for w := range e.hbStop {
		e.stopHeartbeater(w)
	}
}
