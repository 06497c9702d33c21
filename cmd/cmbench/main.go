// Command cmbench reproduces the paper's evaluation: every table and figure
// of §4 plus the microbenchmarks and ablations listed in DESIGN.md. Each
// experiment prints the rows/series the paper reports.
//
// Usage:
//
//	cmbench                      # run everything with the default (paper-sized) settings
//	cmbench -experiment fig3     # run a single experiment
//	cmbench -quick               # smaller sweeps, for a fast smoke run
//	cmbench -csv                 # emit adaptation traces (fig8-10, failure) as CSV instead of tables
//	cmbench -experiment failure  # adaptation under a scheduled bottleneck outage
//
// How fast the simulator itself runs is not measured here: that is cmperf's
// job (bench/, docs/PERF.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/apicost"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run carries main's body so that deferred cleanup — stopping the CPU
// profile, writing the heap profile — still happens on failure exits; a
// bare os.Exit would truncate exactly the profile of the run being
// investigated. It takes its arguments and streams so that tests can call it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which   = fs.String("experiment", "all", "experiment to run: "+experimentNames())
		quick   = fs.Bool("quick", false, "use reduced sweeps so the whole run finishes quickly")
		csv     = fs.Bool("csv", false, "print adaptation traces (fig8-10, failure) as CSV")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
		memProf = fs.String("memprofile", "", "write a heap profile (taken after the experiments) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	runner := &benchRunner{quick: *quick, csv: *csv, out: stdout}
	ran := 0
	for _, name := range strings.Split(strings.ToLower(*which), ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		ok, err := runner.run(name)
		if !ok {
			fmt.Fprintf(stderr, "unknown experiment %q\n", name)
			fs.Usage()
			return 2
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		ran++
	}
	if ran == 0 {
		fs.Usage()
		return 2
	}
	return 0
}

type benchRunner struct {
	quick bool
	csv   bool
	out   io.Writer
}

// catalog is what -experiment accepts besides "all", in the order "all" runs
// them. Failure goes beyond the paper — adaptation when the path fails
// outright instead of merely congesting — and so is not part of "all".
var catalog = []struct {
	name  string
	paper bool
	run   func(b *benchRunner) error
}{
	{"table1", true, func(b *benchRunner) error {
		return b.section(experiments.RunTable1(apicost.DefaultCosts()).Table())
	}},
	{"fig3", true, func(b *benchRunner) error {
		cfg := experiments.Fig3Config{}
		if b.quick {
			cfg = experiments.Fig3Config{LossPercents: []float64{0, 1, 2, 5}, TransferBytes: 500_000, Trials: 1}
		}
		return b.section(experiments.RunFig3(cfg).Table())
	}},
	{"fig4", true, func(b *benchRunner) error {
		cfg := experiments.Fig4Config{}
		if b.quick {
			cfg = experiments.Fig4Config{BufferCounts: []int{1_000, 10_000}}
		}
		return b.section(experiments.RunFig4(cfg).Table())
	}},
	{"fig5", true, func(b *benchRunner) error {
		cfg := experiments.Fig5Config{}
		if b.quick {
			cfg.Fig4 = experiments.Fig4Config{BufferCounts: []int{1_000, 10_000}}
		}
		return b.section(experiments.RunFig5(cfg).Table())
	}},
	{"fig6", true, func(b *benchRunner) error {
		return b.section(experiments.RunFig6(experiments.Fig6Config{}).Table())
	}},
	{"fig7", true, func(b *benchRunner) error {
		cfg := experiments.Fig7Config{}
		if b.quick {
			cfg = experiments.Fig7Config{Requests: 5}
		}
		return b.section(experiments.RunFig7(cfg).Table())
	}},
	{"fig8", true, func(b *benchRunner) error { return b.adaptation(experiments.Fig8Config()) }},
	{"fig9", true, func(b *benchRunner) error { return b.adaptation(experiments.Fig9Config()) }},
	{"fig10", true, func(b *benchRunner) error { return b.adaptation(experiments.Fig10Config()) }},
	{"setup", true, func(b *benchRunner) error {
		return b.section(experiments.RunConnSetup().Table())
	}},
	{"fairness", true, func(b *benchRunner) error {
		cfg := experiments.FairnessConfig{}
		if b.quick {
			cfg.Duration = 15 * time.Second
		}
		return b.section(experiments.RunFairness(cfg).Table())
	}},
	{"ablations", true, func(b *benchRunner) error {
		return b.section(
			experiments.RunAblationInitialWindow().Table(),
			experiments.RunAblationBulkCalls(32).Table(),
			experiments.RunAblationScheduler().Table())
	}},
	{"failure", false, func(b *benchRunner) error {
		cfg := experiments.FailureConfig{}
		if b.quick {
			cfg = experiments.FailureConfig{DownAt: 3 * time.Second, UpAt: 6 * time.Second, Duration: 15 * time.Second}
		}
		res, err := experiments.RunFailure(cfg)
		if err != nil {
			return fmt.Errorf("failure experiment: %w", err)
		}
		if b.csv {
			return b.section(res.CSV())
		}
		return b.section(res.Table())
	}},
}

// experimentNames is the -experiment flag's list of accepted values.
func experimentNames() string {
	names := []string{"all"}
	for _, e := range catalog {
		names = append(names, e.name)
	}
	return strings.Join(names, ", ")
}

// run executes one named experiment; ok is false for an unknown name.
func (b *benchRunner) run(name string) (ok bool, err error) {
	for _, e := range catalog {
		if name == e.name || name == "all" && e.paper {
			ok = true
			if err = e.run(b); err != nil {
				break
			}
		}
	}
	return ok, err
}

func (b *benchRunner) adaptation(cfg experiments.AdaptationConfig) error {
	if b.quick {
		cfg.Duration = 15 * time.Second
	}
	res := experiments.RunAdaptation(cfg)
	if b.csv {
		return b.section(res.CSV())
	}
	return b.section(res.Table())
}

// section prints each body followed by a blank line.
func (b *benchRunner) section(bodies ...string) error {
	for _, body := range bodies {
		if _, err := fmt.Fprintf(b.out, "%s\n\n", body); err != nil {
			return err
		}
	}
	return nil
}
