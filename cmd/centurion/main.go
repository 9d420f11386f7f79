// Command centurion regenerates the paper's evaluation (Tables I and II,
// Figure 4), runs single interactive experiments, and assembles AIM programs
// for the embedded PicoBlaze substrate.
//
// Usage:
//
//	centurion table1 [-runs N] [-seed S]
//	centurion table2 [-runs N] [-seed S] [-faults 0,2,4,8,16,32]
//	centurion fig4   [-faults 5] [-seed S] [-csv out.csv]
//	centurion run    [-model none|ni|ffw|random-static|ni-pb] [-topology mesh|torus|cmesh]
//	                 [-grid WxH] [-seed S] [-ms 1000] [-faults N] [-fault-at MS]
//	                 [-fault-profile KIND|JSON] [-map] [-cpuprofile out.pprof]
//	                 [-checkpoint-at MS -checkpoint-out FILE] [-restore FILE]
//	centurion serve  [-addr :8080] [-workers N] [-queue N] [-cache N] [-store DIR]
//	                 [-journal DIR]
//	centurion worker [-coordinator URL] [-name NAME] [-slots N]
//	                 [-checkpoint-every MS]   (0 = never commit checkpoints)
//	centurion asm    [-o out.txt] file.psm
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"centurion"
	platform "centurion/internal/centurion"
	"centurion/internal/experiments"
	"centurion/internal/noc"
	"centurion/internal/picoblaze"
	"centurion/internal/server"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "table1":
		err = cmdTable1(os.Args[2:])
	case "table2":
		err = cmdTable2(os.Args[2:])
	case "fig4":
		err = cmdFig4(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "worker":
		err = cmdWorker(os.Args[2:])
	case "asm":
		err = cmdAsm(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "centurion:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `centurion — social-insect runtime management on a simulated many-core

subcommands:
  table1   settling time + relative performance, no faults   (paper Table I)
  table2   recovery time + relative performance after faults (paper Table II)
  fig4     time series for one fault scenario                (paper Figure 4)
  run      one interactive run with a chosen model
  serve    run the simulation service (REST API + job engine + dispatch coordinator)
  worker   run a sweep-execution daemon leasing jobs from a coordinator
  asm      assemble a PicoBlaze AIM program
`)
}

func cmdTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	runs := fs.Int("runs", 100, "independent runs per model")
	seed := fs.Uint64("seed", 1, "base seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	start := time.Now()
	t1 := centurion.RunTable1(*runs, *seed)
	fmt.Print(t1.Render())
	fmt.Printf("\n(%d runs/model in %s)\n", *runs, time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdTable2(args []string) error {
	fs := flag.NewFlagSet("table2", flag.ExitOnError)
	runs := fs.Int("runs", 100, "independent runs per cell")
	seed := fs.Uint64("seed", 1, "base seed")
	faultsCSV := fs.String("faults", "0,2,4,8,16,32", "comma-separated fault counts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	counts, err := parseInts(*faultsCSV)
	if err != nil {
		return err
	}
	start := time.Now()
	t2 := experiments.Table2(*runs, *seed, counts)
	fmt.Print(t2.Render())
	fmt.Printf("\n(%d runs/cell in %s)\n", *runs, time.Since(start).Round(time.Millisecond))
	return nil
}

func cmdFig4(args []string) error {
	fs := flag.NewFlagSet("fig4", flag.ExitOnError)
	faultN := fs.Int("faults", 5, "fault count injected at 500 ms (paper: 5 and 42)")
	seed := fs.Uint64("seed", 1, "seed")
	csvPath := fs.String("csv", "", "also write the series to this CSV file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f := centurion.RunFig4(*faultN, *seed)
	defer f.Release()
	fmt.Print(f.RenderASCII())
	if *csvPath != "" {
		out, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := f.WriteCSV(out); err != nil {
			return err
		}
		fmt.Printf("series written to %s\n", *csvPath)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	model := fs.String("model", "ffw", experiments.ModelNames(" | ")+" (ni-pb: the NI pathway on embedded PicoBlaze cores)")
	topology := fs.String("topology", "mesh", "fabric shape: mesh | torus | cmesh")
	grid := fs.String("grid", "", `node-grid dimensions as WxH, e.g. "64x64" (default 16x8)`)
	seed := fs.Uint64("seed", 1, "seed")
	ms := fs.Float64("ms", 1000, "simulated milliseconds")
	faultN := fs.Int("faults", 0, "random node faults to inject (a death profile)")
	faultAt := fs.Float64("fault-at", 500, "fault injection time (whole ms)")
	faultProf := fs.String("fault-profile", "",
		`hostile fault profile: a kind (death|churn|flaky|cascade|byzantine) or a JSON object, e.g. '{"kind":"cascade","waves":4}'`)
	showMap := fs.Bool("map", false, "print the task map before and after")
	cpuProfile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	ckptAt := fs.Float64("checkpoint-at", 0, "write a checkpoint at this time (ms from the start of this run; requires -checkpoint-out)")
	ckptOut := fs.String("checkpoint-out", "", "file to write the -checkpoint-at snapshot to (the run then continues)")
	restorePath := fs.String("restore", "", "resume from a checkpoint file; the platform flags must match the checkpointed run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := experiments.ParseModel(*model)
	if err != nil {
		return err
	}
	width, height := 16, 8
	if *grid != "" {
		if width, height, err = server.ParseGrid(*grid); err != nil {
			return fmt.Errorf("-%w", err) // "grid …" → "-grid …"
		}
	}
	// The noc layer owns the topology rules (valid kinds, cmesh evenness,
	// the node-count ceiling); validating against the requested grid here
	// turns a construction panic into a flag error.
	if _, err := noc.MakeTopology(*topology, width, height); err != nil {
		return err
	}
	// The fault plan is one profile, compiled by the same fault path as a
	// served spec's: -faults N -fault-at T is the death profile that
	// {"num_faults":N,"fault_at_ms":T} denotes.
	var prof *centurion.FaultProfile
	switch {
	case *faultProf != "" && *faultN > 0:
		return fmt.Errorf("-fault-profile and -faults are mutually exclusive (a death profile subsumes the legacy pair)")
	case *faultProf != "":
		p, err := parseFaultProfile(*faultProf)
		if err != nil {
			return err
		}
		prof = &p
	case *faultN > 0:
		// A profile's AtMs of 0 means "half the run", so a fault time that
		// truncates to 0 must never reach it.
		if *faultAt <= 0 || *faultAt >= *ms || *faultAt != math.Trunc(*faultAt) {
			return fmt.Errorf("-fault-at %g must be a whole number of ms strictly inside (0, %g) to inject %d faults", *faultAt, *ms, *faultN)
		}
		prof = &centurion.FaultProfile{Kind: "death", AtMs: int(*faultAt), Nodes: *faultN}
	}
	// The run is split where the fault plan starts (nowhere for a clean
	// run) to report the rates on either side.
	split := *ms
	if prof != nil {
		if err := server.CheckFaultGrid(width, height); err != nil {
			return err
		}
		norm, err := prof.Normalized(int(*ms))
		if err != nil {
			return fmt.Errorf("fault plan: %w", err)
		}
		prof, split = &norm, float64(norm.AtMs)
	}
	if *ckptOut == "" && *ckptAt != 0 {
		return fmt.Errorf("-checkpoint-at requires -checkpoint-out")
	}
	if *ckptOut != "" && (*ckptAt < 0 || *ckptAt > *ms) {
		return fmt.Errorf("-checkpoint-at %g must lie within [0, %g]", *ckptAt, *ms)
	}
	if *restorePath != "" && prof != nil {
		return fmt.Errorf("-restore resumes a finished timeline; fault plans are timed from a cold start (checkpoint the faulty run instead)")
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	sys := centurion.NewSystem(
		centurion.WithModel(m),
		centurion.WithSeed(*seed),
		centurion.WithTopology(*topology),
		centurion.WithSize(width, height),
	)
	if *restorePath != "" {
		cp, err := platform.ReadCheckpointFile(*restorePath)
		if err != nil {
			return err
		}
		if err := sys.Platform().Restore(cp); err != nil {
			return fmt.Errorf("restoring %s: checkpoint does not fit this platform (%v); pass the -model/-grid/-topology of the checkpointed run", *restorePath, err)
		}
		fmt.Printf("restored %s at t=%.0f ms; running %.0f ms more\n", *restorePath, sys.NowMs(), *ms)
	}
	rc := &runClock{sys: sys, base: sys.NowMs(), at: *ckptAt, out: *ckptOut}
	if *showMap {
		fmt.Println("initial task map:")
		fmt.Print(sys.MapASCII())
	}

	if prof != nil {
		if err := sys.ApplyFaultProfile(*prof, *seed, int(*ms)); err != nil {
			return err
		}
	}
	// Deltas, not totals: a restored run's counters already include the
	// checkpointed prefix, and this command reports only its own segment.
	c0 := sys.Counters()
	if err := rc.advance(split); err != nil {
		return err
	}
	mid := sys.Counters()
	if err := rc.advance(*ms - split); err != nil {
		return err
	}
	c := sys.Counters()
	fmt.Printf("model=%s topology=%s seed=%d: %d instances completed in %.0f ms (%.2f inst/ms), %d task switches\n",
		*model, *topology, *seed, c.InstancesCompleted-c0.InstancesCompleted, *ms,
		float64(c.InstancesCompleted-c0.InstancesCompleted)/(*ms), c.TaskSwitches-c0.TaskSwitches)
	if prof != nil {
		fmt.Printf("%s faults from %d ms: pre-fault %.2f inst/ms, post-fault %.2f inst/ms\n",
			prof.Kind, prof.AtMs, float64(mid.InstancesCompleted-c0.InstancesCompleted)/split,
			float64(c.InstancesCompleted-mid.InstancesCompleted)/(*ms-split))
	}
	if *showMap {
		fmt.Println("final task map:")
		fmt.Print(sys.MapASCII())
	}
	counts := sys.TaskCounts()
	fmt.Printf("task populations: %v (alive nodes: %d)\n", counts[1:], sys.AliveNodes())
	return nil
}

// runClock advances a system through the segments of one `centurion run`
// invocation and writes the requested checkpoint when simulated time first
// reaches -checkpoint-at (measured from this run's start, so it composes
// with -restore). Splitting the containing segment at the snapshot point
// leaves the run's own timeline untouched.
type runClock struct {
	sys  *centurion.System
	base float64 // simulated ms when this run started
	at   float64 // checkpoint offset from base
	out  string  // checkpoint file; empty disables
	done bool
}

func (rc *runClock) advance(ms float64) error {
	if rc.out != "" && !rc.done {
		into := rc.at - (rc.sys.NowMs() - rc.base)
		if into >= 0 && into <= ms {
			rc.sys.RunMs(into)
			ms -= into
			if err := platform.WriteCheckpointFile(rc.out, rc.sys.Platform().Snapshot()); err != nil {
				return err
			}
			rc.done = true
			fmt.Printf("checkpoint written to %s at t=%.0f ms\n", rc.out, rc.sys.NowMs())
		}
	}
	rc.sys.RunMs(ms)
	return nil
}

func cmdAsm(args []string) error {
	fs := flag.NewFlagSet("asm", flag.ExitOnError)
	out := fs.String("o", "", "write disassembly listing to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var src string
	if fs.NArg() == 0 {
		// No file: assemble the built-in NI pathway as a demonstration.
		src = picoblaze.NIProgram
		fmt.Fprintln(os.Stderr, "no input file; assembling the built-in NI pathway")
	} else {
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		src = string(data)
	}
	prog, err := picoblaze.Assemble(src)
	if err != nil {
		return err
	}
	listing := picoblaze.Disassemble(prog)
	if *out == "" {
		fmt.Print(listing)
		return nil
	}
	return os.WriteFile(*out, []byte(listing), 0o644)
}

// parseFaultProfile accepts either a bare profile kind ("cascade") or a
// JSON object with the full fault_profile field set.
func parseFaultProfile(s string) (centurion.FaultProfile, error) {
	var p centurion.FaultProfile
	if strings.HasPrefix(strings.TrimSpace(s), "{") {
		dec := json.NewDecoder(strings.NewReader(s))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			return p, fmt.Errorf("bad -fault-profile JSON: %w", err)
		}
		return p, nil
	}
	p.Kind = strings.TrimSpace(s)
	return p, nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("bad fault count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
