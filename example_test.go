package centurion_test

import (
	"fmt"

	"centurion"
	"centurion/internal/aim"
	"centurion/internal/picoblaze"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
	"centurion/internal/thermal"
)

// Assemble the platform with the Foraging-for-Work intelligence, run it for
// one simulated second from a random task mapping, and watch the colony
// organise itself.
func ExampleNewSystem() {
	sys := centurion.NewSystem(
		centurion.WithModel(centurion.ModelFFW),
		centurion.WithSeed(1),
	)

	fmt.Println("initial task mapping (1=source, 2=worker, 3=sink):")
	fmt.Print(sys.MapASCII())

	for step := 0; step < 5; step++ {
		before := sys.Throughput()
		sys.RunMs(200)
		counts := sys.TaskCounts()
		fmt.Printf("t=%4.0fms  throughput %.2f inst/ms  populations 1:%d 2:%d 3:%d  switches %d\n",
			sys.NowMs(),
			float64(sys.Throughput()-before)/200,
			counts[1], counts[2], counts[3],
			sys.Counters().TaskSwitches)
	}

	fmt.Println("\nfinal task mapping:")
	fmt.Print(sys.MapASCII())

	c := sys.Counters()
	fmt.Printf("\ncompleted %d of %d started instances (%.1f%%)\n",
		c.InstancesCompleted, c.InstancesStarted,
		100*float64(c.InstancesCompleted)/float64(c.InstancesStarted))
	// Output:
	// initial task mapping (1=source, 2=worker, 3=sink):
	// 1313111212322313
	// 3121131223232123
	// 1331323123221333
	// 1321321323133312
	// 1323312132322311
	// 1333221131112323
	// 1312322112123311
	// 2133213313331323
	// t= 200ms  throughput 1.64 inst/ms  populations 1:43 2:38 3:47  switches 3
	// t= 400ms  throughput 2.10 inst/ms  populations 1:43 2:42 3:43  switches 7
	// t= 600ms  throughput 2.10 inst/ms  populations 1:43 2:43 3:42  switches 8
	// t= 800ms  throughput 2.19 inst/ms  populations 1:43 2:45 3:40  switches 10
	// t=1000ms  throughput 2.19 inst/ms  populations 1:43 2:45 3:40  switches 10
	//
	// final task mapping:
	// 1312111212322313
	// 3121131223232123
	// 1221323123221333
	// 1321321323133312
	// 1223312122322311
	// 1322221131112323
	// 1312322112122311
	// 2123213313321323
	//
	// completed 2043 of 2528 started instances (80.8%)
}

// The paper's headline scenario: a third of the 128 nodes fail at
// t=500 ms — the scale of a failed global clock buffer — and the three
// runtime-management schemes ride it out side by side. The faults are one
// death wave, the same fault path a served run's num_faults/fault_at_ms
// pair takes.
//
// Expected shape (paper Figure 4 / Table II): the static baseline loses
// throughput in proportion to the dead nodes; the social-insect models
// re-organise the surviving nodes' task topology and claw performance back.
func ExampleSystem_ApplyFaultProfile() {
	const (
		faultCount = 42 // one third of Centurion
		faultAtMs  = 500
		totalMs    = 1500
	)

	fmt.Printf("injecting %d random node faults at t=%dms\n\n", faultCount, faultAtMs)
	fmt.Printf("%-22s %12s %12s %10s %9s\n",
		"model", "pre (i/ms)", "post (i/ms)", "retained", "switches")

	var ffw *centurion.System
	for _, m := range []centurion.Model{
		centurion.ModelNone, centurion.ModelNI, centurion.ModelFFW,
	} {
		sys := centurion.NewSystem(centurion.WithModel(m), centurion.WithSeed(7))
		death := centurion.FaultProfile{Kind: "death", AtMs: faultAtMs, Nodes: faultCount}
		if err := sys.ApplyFaultProfile(death, 7, totalMs); err != nil {
			panic(err)
		}

		sys.RunMs(faultAtMs)
		preRate := float64(sys.Throughput()) / faultAtMs

		// Let the colony re-settle, then measure the recovered tail.
		sys.RunMs(500)
		settled := sys.Throughput()
		sys.RunMs(totalMs - faultAtMs - 500)
		postRate := float64(sys.Throughput()-settled) / float64(totalMs-faultAtMs-500)

		fmt.Printf("%-22s %12.2f %12.2f %9.0f%% %9d\n",
			m, preRate, postRate, 100*postRate/preRate,
			sys.Counters().TaskSwitches)
		ffw = sys
	}

	fmt.Println("\nFinal task map of the FFW run (x = dead node):")
	fmt.Print(ffw.MapASCII())
	// Output:
	// injecting 42 random node faults at t=500ms
	//
	// model                    pre (i/ms)  post (i/ms)   retained  switches
	// No Intelligence                2.12         1.37        65%         0
	// Network Interaction            1.70         1.28        75%        14
	// Foraging For Work              1.73         1.21        70%         4
	//
	// Final task map of the FFW run (x = dead node):
	// 1121x1xx2xx21123
	// x2233xxxx113x31x
	// 11212x222xx21x13
	// 1x23221xx1xx2x11
	// 132xx32313x221x1
	// 3313121x32122xx1
	// 3x2112x12xx32x3x
	// 1xx22xx232x113xx
}

// The remaining monitors and knobs of the paper's AIM interface — "local
// temperature sensing" and "node-level frequency scaling (10MHz - 300MHz)".
// A hot process technology (aggressive HeatPerWork) makes the busiest nodes
// exceed the safe die temperature. With the DVFS governor enabled, those
// nodes are halved in frequency until they cool; combined with Foraging for
// Work, the colony shifts work away from throttled nodes.
func ExampleWithThermalDVFS() {
	// A deliberately hot calibration so the default workload stresses it.
	hot := thermal.DefaultParams()
	hot.HeatPerWork = 16
	hot.MaxSafe = 80

	run := func(name string, opts ...centurion.Option) {
		opts = append(opts,
			centurion.WithModel(centurion.ModelFFW),
			centurion.WithSeed(5),
			centurion.WithThermal(hot),
		)
		sys := centurion.NewSystem(opts...)
		fmt.Printf("%-14s", name)
		for step := 0; step < 5; step++ {
			before := sys.Throughput()
			sys.RunMs(200)
			_, peak := sys.Thermal().Hottest()
			fmt.Printf("  [%3.0fms %4.2fi/ms %5.1f°C]",
				sys.NowMs(), float64(sys.Throughput()-before)/200, peak)
		}
		_, peak := sys.Thermal().Hottest()
		fmt.Printf("\n%14sfinal: mean %.1f°C, hottest %.1f°C, %d completions\n\n",
			"", sys.Thermal().Mean(), peak, sys.Throughput())
	}

	fmt.Println("workload on a hot process, per-200ms [time, throughput, peak temp]:")
	run("no governor")
	run("DVFS governor", centurion.WithThermalDVFS())

	fmt.Println("The governor trades throughput for a bounded die temperature;")
	fmt.Println("task allocation then routes work around the throttled hot")
	fmt.Println("spots — the paper's envisioned closed loop.")
	// Output:
	// workload on a hot process, per-200ms [time, throughput, peak temp]:
	// no governor     [200ms 1.91i/ms 154.6°C]  [400ms 2.36i/ms 206.9°C]  [600ms 2.26i/ms 166.1°C]  [800ms 2.06i/ms 149.3°C]  [1000ms 1.97i/ms 232.3°C]
	//               final: mean 87.3°C, hottest 232.3°C, 2111 completions
	//
	// DVFS governor   [200ms 1.22i/ms 130.0°C]  [400ms 1.24i/ms 181.0°C]  [600ms 1.50i/ms 169.4°C]  [800ms 1.26i/ms 113.0°C]  [1000ms 1.23i/ms 136.7°C]
	//               final: mean 76.5°C, hottest 136.7°C, 1289 completions
	//
	// The governor trades throughput for a bounded die temperature;
	// task allocation then routes work around the throttled hot
	// spots — the paper's envisioned closed loop.
}

// The embedded side of the paper: the Artificial Intelligence Module is
// "uploaded program code" on a PicoBlaze microcontroller at every router.
// Assemble the Network Interaction pathway, step the raw 8-bit core against
// a synthetic stimulus, then run the full 128-node platform with the
// instruction-level engine in every router (ModelNIPB) next to the
// behavioural implementation.
func Example_picoBlaze() {
	// 1. Assemble and inspect the pathway.
	prog := picoblaze.MustAssemble(picoblaze.NIProgram)
	fmt.Printf("NI threshold pathway: %d instructions\n", len(prog))
	fmt.Println(picoblaze.Disassemble(prog[:8]) + "        ...")

	// 2. Drive one raw engine by hand: an idle sink node watching worker
	// traffic accumulate past its threshold.
	g := taskgraph.ForkJoin(taskgraph.DefaultForkJoinParams())
	engine, err := picoblaze.NewNIEngine(g, aim.NIParams{
		Threshold:      6,
		InternalWeight: 3,
		PinSources:     true,
	})
	if err != nil {
		panic(err)
	}
	engine.NoteTask(taskgraph.ForkSink)
	for i := 0; i < 10; i++ {
		engine.OnRouted(taskgraph.ForkWorker, sim.Tick(i))
		if task, ok := engine.Decide(sim.Tick(i)); ok {
			fmt.Printf("after %d routed worker packets the node switches to task %d "+
				"(in %d executed instructions)\n\n", i+1, task, engine.Steps())
			break
		}
	}

	// 3. The full platform with an emulated 8-bit core in every router.
	pb := centurion.NewSystem(centurion.WithModel(centurion.ModelNIPB), centurion.WithSeed(3))
	ni := centurion.NewSystem(centurion.WithModel(centurion.ModelNI), centurion.WithSeed(3))
	pb.RunMs(1000)
	ni.RunMs(1000)

	fmt.Printf("full platform, 1000 ms, seed 3:\n")
	fmt.Printf("  embedded PicoBlaze NI: %5d instances, %d switches\n",
		pb.Throughput(), pb.Counters().TaskSwitches)
	fmt.Printf("  behavioural Go NI:     %5d instances, %d switches\n",
		ni.Throughput(), ni.Counters().TaskSwitches)
	if pb.Counters() == ni.Counters() {
		fmt.Println("  -> bit-identical dynamics: the embedded pathway IS the model")
	}
	// Output:
	// NI threshold pathway: 35 instructions
	// 000: INPUT s3, 11
	// 001: INPUT s4, 10
	// 002: INPUT s7, 12
	// 003: LOAD s0, 01
	// 004: INPUT s2, (s0)
	// 005: FETCH s1, (s0)
	// 006: ADD s1, s2
	// 007: JUMP NC, 009
	//         ...
	// after 6 routed worker packets the node switches to task 2 (in 310 executed instructions)
	//
	// full platform, 1000 ms, seed 3:
	//   embedded PicoBlaze NI:  2521 instances, 13 switches
	//   behavioural Go NI:      2521 instances, 13 switches
	//   -> bit-identical dynamics: the embedded pathway IS the model
}
