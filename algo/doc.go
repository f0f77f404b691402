// Package algo implements the paper's graph-algorithm suite on top of the
// FLASH programming model (flash package): the eight core applications of
// Table V (CC, BFS, BC, MIS, MM, KC, TC, GC), the six advanced applications
// of Table VI (SCC, BCC, LPA, MSF, RC, CL), the optimized variants the paper
// highlights (CC-opt, MM-opt, KC-opt), and a few extras (SSSP, PageRank)
// mentioned as in-scope for the model.
//
// Every function builds a private engine from the supplied options, runs the
// algorithm to convergence, extracts plain-Go results, and closes the
// engine. Algorithms that use virtual edge sets (communication beyond the
// neighborhood: CC-opt, MM-opt, SCC, CL, RC) enable full mirroring
// themselves; callers don't need to.
//
// Implementations follow the paper's pseudocode (Algorithms 2-3 and 9-23)
// closely so the LLoC productivity comparison of Table I is meaningful; where
// the pseudocode has typos the intended algorithm from its cited source is
// implemented, with a comment noting the deviation.
package algo

import (
	"flash"
	"flash/graph"
)

// VID re-exports the vertex id type for convenience.
type VID = graph.VID

const (
	inf32 = int32(1 << 30)
	none  = int32(-1)
)

func newEngine[V any](g *graph.Graph, opts []flash.Option, extra ...flash.Option) (*flash.Engine[V], error) {
	return flash.NewEngine[V](g, append(append([]flash.Option{}, opts...), extra...)...)
}
