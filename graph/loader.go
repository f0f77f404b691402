package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// LoadOptions control edge-list parsing.
type LoadOptions struct {
	Directed bool
	Weighted bool // third column parsed as float weight when present
	Name     string
	// MaxVertices rejects inputs whose largest vertex id reaches this bound
	// (0 = unlimited). Set it when parsing untrusted input: vertex storage
	// is proportional to the largest id, not to the edge count.
	MaxVertices int
}

// LoadEdgeList parses a whitespace-separated edge list ("u v" or "u v w" per
// line; '#' and '%' lines are comments). The vertex count is one plus the
// largest id seen.
func LoadEdgeList(r io.Reader, opt LoadOptions) (*Graph, error) {
	b, err := parseEdgeList(r, opt)
	if err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// parseEdgeList reads an edge list into a Builder sized to the largest id.
func parseEdgeList(r io.Reader, opt LoadOptions) (*Builder, error) {
	b := &Builder{directed: opt.Directed, weighted: opt.Weighted, name: opt.Name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' || text[0] == '%' {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: want at least 2 fields, got %q", line, text)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad source %q: %w", line, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad target %q: %w", line, fields[1], err)
		}
		// NoVertex is the "no vertex" sentinel, and as an id it would size
		// the graph at 2^32 vertices.
		if VID(u) == NoVertex || VID(v) == NoVertex {
			return nil, fmt.Errorf("graph: line %d: vertex id %d is reserved (NoVertex)", line, NoVertex)
		}
		w := float32(1)
		if opt.Weighted && len(fields) >= 3 {
			wf, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight %q: %w", line, fields[2], err)
			}
			// NaN has no order, so neither the row order nor the
			// smallest-weight merge of parallel edges would be defined.
			if math.IsNaN(wf) {
				return nil, fmt.Errorf("graph: line %d: weight %q is not a number", line, fields[2])
			}
			w = float32(wf)
		}
		if opt.MaxVertices > 0 && (u >= uint64(opt.MaxVertices) || v >= uint64(opt.MaxVertices)) {
			return nil, fmt.Errorf("graph: line %d: vertex id beyond MaxVertices=%d", line, opt.MaxVertices)
		}
		b.srcs = append(b.srcs, VID(u))
		b.dsts = append(b.dsts, VID(v))
		if opt.Weighted {
			b.ws = append(b.ws, w)
		}
		b.n = max(b.n, int(u)+1, int(v)+1)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return b, nil
}

// LoadEdgeListFile opens path and parses it with LoadEdgeList. The dataset
// name defaults to the path when opt.Name is empty.
func LoadEdgeListFile(path string, opt LoadOptions) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	defer f.Close()
	if opt.Name == "" {
		opt.Name = path
	}
	return LoadEdgeList(f, opt)
}

// WriteEdgeList writes the graph as a parseable edge list. Undirected graphs
// emit each edge once (u <= v).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# %s\n", g.String()); err != nil {
		return err
	}
	var werr error
	g.Edges(func(u, v VID, wt float32) bool {
		if !g.Directed() && u > v {
			return true
		}
		if g.Weighted() {
			_, werr = fmt.Fprintf(bw, "%d %d %g\n", u, v, wt)
		} else {
			_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}
