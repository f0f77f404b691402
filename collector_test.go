package flash_test

import (
	"testing"

	"flash"
	"flash/algo"
	"flash/graph"
	"flash/metrics"
)

// TestResizeSharedCollectorRunsAreEngineScoped runs two BFS jobs that share
// one Collector under a schedule that grows the engine after superstep 2.
// Each run's superstep count, and so its resize schedule, must be its own:
// the collector is a sink that only receives each engine's totals at Close.
func TestResizeSharedCollectorRunsAreEngineScoped(t *testing.T) {
	g := graph.GenErdosRenyi(200, 900, 5)
	col := metrics.New()
	var stats []flash.RunStats
	for run := 0; run < 2; run++ {
		if _, err := algo.BFS(g, 0,
			flash.WithWorkers(2),
			flash.WithCollector(col),
			flash.WithResizePolicy(flash.SchedulePolicy(map[int]int{2: 4})),
			flash.WithRunStats(func(s flash.RunStats) { stats = append(stats, s) }),
		); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	if len(stats) != 2 {
		t.Fatalf("got %d RunStats, want 2", len(stats))
	}
	for run, st := range stats {
		r := st.Result
		if r.Supersteps != stats[0].Result.Supersteps || r.Supersteps <= 2 {
			t.Errorf("run %d: %d supersteps, want the first run's %d (> 2)", run, r.Supersteps, stats[0].Result.Supersteps)
		}
		if st.Workers != 4 || r.Resizes != 1 {
			t.Errorf("run %d: workers=%d resizes=%d, want 4 and 1", run, st.Workers, r.Resizes)
		}
	}
	steps := stats[0].Result.Supersteps + stats[1].Result.Supersteps
	if col.Supersteps != steps || len(col.Frontier) != steps || col.Resizes != 2 {
		t.Errorf("collector: %d supersteps, %d frontier entries, %d resizes; want %d, %d, 2",
			col.Supersteps, len(col.Frontier), col.Resizes, steps, steps)
	}
	if want := stats[0].Result.MigratedBytes + stats[1].Result.MigratedBytes; col.MigratedBytes != want || want == 0 {
		t.Errorf("collector migrated %d bytes, want the runs' sum %d (> 0)", col.MigratedBytes, want)
	}
}
