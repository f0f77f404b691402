// Package metrics holds the runtime measurements the paper's evaluation
// reports: a piecewise breakdown of execution time (computation,
// communication incl. waiting, serialization, other; §V-E), message/byte
// counters, the per-iteration active-vertex trace used by Fig. 4(a), and the
// fault-tolerance, elasticity and out-of-core counters.
package metrics

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Category labels one slice of the execution-time breakdown.
type Category int

const (
	Compute       Category = iota // worker computation in the map kernels
	Communication                 // transfer and waiting in exchange rounds
	Serialization                 // encoding and decoding frames
	Other                         // rollback and replay of in-process recovery only
	numCategories
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case Compute:
		return "computation"
	case Communication:
		return "communication"
	case Serialization:
		return "serialization"
	case Other:
		return "other"
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// Counters is one plain record of runtime measurements. It has no lock: the
// engine keeps one per worker, written only by that worker's goroutine, and
// one for the driver, into which it folds the worker records after each
// join. The zero value is an empty record.
type Counters struct {
	Supersteps int
	// Frontier[i] is the number of active vertices entering superstep i.
	Frontier []int
	Messages uint64
	Bytes    uint64

	// The §V-E time breakdown. OtherTime holds the rollback and replay time
	// of in-process recovery; no other driver time is tracked.
	ComputeTime       time.Duration
	CommunicationTime time.Duration
	SerializationTime time.Duration
	OtherTime         time.Duration

	// Robustness counters (fault-tolerant runtime).
	//
	// Retries counts transient send failures that were retried with backoff;
	// Reconnects counts connections re-established after a drop; Recoveries
	// counts checkpoint rollbacks + replays; Checkpoints counts snapshots
	// taken at superstep barriers.
	Retries     uint64
	Reconnects  uint64
	Recoveries  uint64
	Checkpoints uint64
	// Restarts counts cold worker restarts after a permanent worker loss;
	// CheckpointBytes is the total encoded checkpoint payload handed to the
	// store; RecoveryTime is the wall time spent inside recovery (rollback,
	// replay, and cold restarts).
	Restarts        uint64
	CheckpointBytes uint64
	RecoveryTime    time.Duration
	// Elasticity counters: Resizes counts completed membership changes,
	// MigratedBytes the master-state payload shipped between partitions during
	// migration rounds, and ResizeTime the wall time runs spent paused at
	// resize barriers (quiesce through resume, including failed attempts that
	// rolled back).
	Resizes       uint64
	MigratedBytes uint64
	ResizeTime    time.Duration
	// Out-of-core block backend counters: block-cache hits, misses, and
	// evictions; encoded bytes read from disk split by the scheduling mode
	// (dense = sequential stream, sparse = frontier-resident blocks only);
	// and how many EdgeMap supersteps ran in each mode. All zero for
	// in-memory runs.
	BlockHits        uint64
	BlockMisses      uint64
	BlockEvictions   uint64
	BlockBytesDense  uint64
	BlockBytesSparse uint64
	BlockStepsDense  uint64
	BlockStepsSparse uint64
}

// Add folds o into c: every counter and duration is summed and o's frontier
// trace is appended to c's.
func (c *Counters) Add(o *Counters) {
	c.Supersteps += o.Supersteps
	c.Frontier = append(c.Frontier, o.Frontier...)
	c.Messages += o.Messages
	c.Bytes += o.Bytes
	c.ComputeTime += o.ComputeTime
	c.CommunicationTime += o.CommunicationTime
	c.SerializationTime += o.SerializationTime
	c.OtherTime += o.OtherTime
	c.Retries += o.Retries
	c.Reconnects += o.Reconnects
	c.Recoveries += o.Recoveries
	c.Checkpoints += o.Checkpoints
	c.Restarts += o.Restarts
	c.CheckpointBytes += o.CheckpointBytes
	c.RecoveryTime += o.RecoveryTime
	c.Resizes += o.Resizes
	c.MigratedBytes += o.MigratedBytes
	c.ResizeTime += o.ResizeTime
	c.BlockHits += o.BlockHits
	c.BlockMisses += o.BlockMisses
	c.BlockEvictions += o.BlockEvictions
	c.BlockBytesDense += o.BlockBytesDense
	c.BlockBytesSparse += o.BlockBytesSparse
	c.BlockStepsDense += o.BlockStepsDense
	c.BlockStepsSparse += o.BlockStepsSparse
}

// times returns the breakdown durations indexed by Category.
func (c Counters) times() [numCategories]time.Duration {
	return [...]time.Duration{c.ComputeTime, c.CommunicationTime, c.SerializationTime, c.OtherTime}
}

// Duration returns the accumulated time for cat.
func (c Counters) Duration(cat Category) time.Duration {
	if cat < 0 || cat >= numCategories {
		return 0
	}
	return c.times()[cat]
}

// Total returns the sum over all categories.
func (c Counters) Total() time.Duration {
	var t time.Duration
	for _, d := range c.times() {
		t += d
	}
	return t
}

// Breakdown returns the per-category shares (0..1). All zeros when nothing
// was recorded.
func (c Counters) Breakdown() [numCategories]float64 {
	var out [numCategories]float64
	total := c.Total()
	if total == 0 {
		return out
	}
	for i, d := range c.times() {
		out[i] = float64(d) / float64(total)
	}
	return out
}

// String formats the record as a one-line report.
func (c Counters) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "steps=%d msgs=%d bytes=%d", c.Supersteps, c.Messages, c.Bytes)
	for cat, d := range c.times() {
		fmt.Fprintf(&sb, " %s=%s", Category(cat), d.Round(time.Microsecond))
	}
	if c.Retries+c.Reconnects+c.Recoveries+c.Checkpoints > 0 {
		fmt.Fprintf(&sb, " retries=%d reconnects=%d recoveries=%d checkpoints=%d",
			c.Retries, c.Reconnects, c.Recoveries, c.Checkpoints)
	}
	if c.Restarts+c.CheckpointBytes > 0 || c.RecoveryTime > 0 {
		fmt.Fprintf(&sb, " restarts=%d ckpt_bytes=%d recovery_time=%s",
			c.Restarts, c.CheckpointBytes, c.RecoveryTime.Round(time.Microsecond))
	}
	if c.Resizes > 0 {
		fmt.Fprintf(&sb, " resizes=%d migrated_bytes=%d resize_time=%s",
			c.Resizes, c.MigratedBytes, c.ResizeTime.Round(time.Microsecond))
	}
	if c.BlockHits+c.BlockMisses > 0 {
		fmt.Fprintf(&sb, " blk_hits=%d blk_misses=%d blk_evicts=%d blk_bytes_dense=%d blk_bytes_sparse=%d",
			c.BlockHits, c.BlockMisses, c.BlockEvictions, c.BlockBytesDense, c.BlockBytesSparse)
	}
	return sb.String()
}

// Collector is a sink for the totals of one or more engines. An engine
// configured with a Collector records its counters into it once, when it
// closes; a Collector shared by several engines holds their sums. Read its
// fields once the engines writing to it have closed.
type Collector struct {
	mu sync.Mutex
	Counters
}

// New returns an empty collector.
func New() *Collector { return &Collector{} }

// Record adds c to the collector's totals. It is safe for concurrent use.
func (col *Collector) Record(c Counters) {
	col.mu.Lock()
	col.Counters.Add(&c)
	col.mu.Unlock()
}
