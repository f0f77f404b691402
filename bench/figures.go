package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"flash"
	"flash/algo"
	"flash/metrics"
)

// Fig3 compares BFS under forced push, forced pull, and the adaptive dual
// mode on the paper's three Fig. 3 datasets (TW, US, UK analogs).
func Fig3(w io.Writer, opt Options) {
	opt.fill()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Data\tsparse(push)\tdense(pull)\tdual(auto)")
	for _, abbr := range []string{"TW", "US", "UK"} {
		d, _ := DatasetByAbbr(abbr)
		g := d.Build(opt.Scale)
		fmt.Fprintf(tw, "%s", abbr)
		for _, mode := range []flash.Mode{flash.Push, flash.Pull, flash.Auto} {
			start := time.Now()
			if _, err := algo.BFS(g, 0,
				flash.WithWorkers(opt.Run.Workers),
				flash.WithThreads(opt.Run.Threads),
				flash.WithMode(mode)); err != nil {
				fmt.Fprintf(tw, "\tERR")
				continue
			}
			fmt.Fprintf(tw, "\t%.4f", time.Since(start).Seconds())
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// Fig4a prints the per-iteration active-vertex traces of MM-basic and
// MM-opt on the TW analog.
func Fig4a(w io.Writer, opt Options) error {
	opt.fill()
	d, _ := DatasetByAbbr("TW")
	g := d.Build(opt.Scale)
	fo := []flash.Option{flash.WithWorkers(opt.Run.Workers), flash.WithThreads(opt.Run.Threads)}
	basic, err := algo.MMActiveTrace(g, fo...)
	if err != nil {
		return err
	}
	optTrace, err := algo.MMOptActiveTrace(g, fo...)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "iter\tMM-basic\tMM-opt")
	n := len(basic)
	if len(optTrace) > n {
		n = len(optTrace)
	}
	sumB, sumO := 0, 0
	for i := 0; i < n; i++ {
		b, o := "-", "-"
		if i < len(basic) {
			b = fmt.Sprint(basic[i])
			sumB += basic[i]
		}
		if i < len(optTrace) {
			o = fmt.Sprint(optTrace[i])
			sumO += optTrace[i]
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\n", i, b, o)
	}
	fmt.Fprintf(tw, "total\t%d\t%d\n", sumB, sumO)
	tw.Flush()
	return nil
}

// Fig4b measures TC on the TW analog with varying intra-node parallelism
// (threads on one worker), the paper's core-scaling experiment.
func Fig4b(w io.Writer, opt Options) error {
	opt.fill()
	d, _ := DatasetByAbbr("TW")
	g := d.Build(opt.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "threads\tseconds\tspeedup")
	var base float64
	for _, threads := range []int{1, 2, 4, 8} {
		start := time.Now()
		if _, err := algo.TC(g, flash.WithWorkers(1), flash.WithThreads(threads)); err != nil {
			return err
		}
		secs := time.Since(start).Seconds()
		if threads == 1 {
			base = secs
		}
		fmt.Fprintf(tw, "%d\t%.4f\t%.2fx\n", threads, secs, base/secs)
	}
	tw.Flush()
	return nil
}

// Fig4cd measures TC on TW and CL on UK with varying worker ("node")
// counts, the paper's inter-node scaling experiment.
func Fig4cd(w io.Writer, opt Options) error {
	opt.fill()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "experiment\tworkers\tseconds\tspeedup")
	for _, exp := range []struct {
		name string
		data string
		run  func(workers int) error
	}{
		{"TC/TW", "TW", func(workers int) error {
			d, _ := DatasetByAbbr("TW")
			g := d.Build(opt.Scale)
			_, err := algo.TC(g, flash.WithWorkers(workers), flash.WithThreads(opt.Run.Threads))
			return err
		}},
		{"CL/UK", "UK", func(workers int) error {
			d, _ := DatasetByAbbr("UK")
			g := d.Build(opt.Scale)
			_, err := algo.CL(g, opt.Run.CLK, flash.WithWorkers(workers), flash.WithThreads(opt.Run.Threads))
			return err
		}},
	} {
		var base float64
		for _, workers := range []int{1, 2, 4} {
			start := time.Now()
			if err := exp.run(workers); err != nil {
				return err
			}
			secs := time.Since(start).Seconds()
			if workers == 1 {
				base = secs
			}
			fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.2fx\n", exp.name, workers, secs, base/secs)
		}
	}
	tw.Flush()
	return nil
}

// Breakdown reproduces the §V-E piecewise analysis: the share of
// computation, communication, serialization and other time for CC-opt on
// the TW analog as the worker count grows.
func Breakdown(w io.Writer, opt Options) error {
	opt.fill()
	d, _ := DatasetByAbbr("TW")
	g := d.Build(opt.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workers\tcomputation\tcommunication\tserialization\tother\ttotal(s)")
	for _, workers := range []int{1, 2, 4} {
		col := metrics.New()
		start := time.Now()
		if _, err := algo.CCOpt(g, flash.WithWorkers(workers), flash.WithCollector(col)); err != nil {
			return err
		}
		wall := time.Since(start).Seconds()
		bd := col.Breakdown()
		// "Other" is the rollback and replay time of in-process recovery;
		// no other driver time is tracked.
		fmt.Fprintf(tw, "%d\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\t%.4f\n",
			workers, bd[metrics.Compute]*100, bd[metrics.Communication]*100,
			bd[metrics.Serialization]*100, bd[metrics.Other]*100, wall)
	}
	tw.Flush()
	return nil
}

// Ablation measures the §IV-C optimization toggles on BFS over the OR
// analog: necessary-mirror sync vs broadcast, and communication overlap on
// vs off.
func Ablation(w io.Writer, opt Options) error {
	opt.fill()
	d, _ := DatasetByAbbr("OR")
	g := d.Build(opt.Scale)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "configuration\tseconds")
	for _, cfg := range []struct {
		name string
		opts []flash.Option
	}{
		{"baseline (all optimizations)", []flash.Option{flash.WithBatchBytes(1 << 16)}},
		{"broadcast sync (no necessary mirrors)", []flash.Option{flash.WithBatchBytes(1 << 16), flash.WithoutNecessaryMirrors()}},
		{"no comm/compute overlap", nil},
		{"hash placement", []flash.Option{flash.WithBatchBytes(1 << 16), flash.WithHashPlacement()}},
	} {
		opts := append([]flash.Option{flash.WithWorkers(opt.Run.Workers), flash.WithThreads(opt.Run.Threads)}, cfg.opts...)
		start := time.Now()
		if _, err := algo.CC(g, opts...); err != nil {
			return err
		}
		fmt.Fprintf(tw, "%s\t%.4f\n", cfg.name, time.Since(start).Seconds())
	}
	tw.Flush()
	return nil
}

// CCOptRounds reproduces the Appendix B iteration-count claim: CC-basic
// supersteps vs CC-opt rounds on the large-diameter US analog.
func CCOptRounds(w io.Writer, opt Options) error {
	opt.fill()
	d, _ := DatasetByAbbr("US")
	g := d.Build(opt.Scale)
	col := metrics.New()
	if _, err := algo.CC(g, flash.WithWorkers(opt.Run.Workers), flash.WithCollector(col)); err != nil {
		return err
	}
	res, err := algo.CCOpt(g, flash.WithWorkers(opt.Run.Workers))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "CC-basic supersteps: %d\nCC-opt rounds: %d\n", col.Supersteps, res.Rounds)
	return nil
}
