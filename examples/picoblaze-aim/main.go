// PicoBlaze AIM: the embedded side of the paper. The Artificial Intelligence
// Module is "uploaded program code" on a PicoBlaze microcontroller at every
// router; this example assembles the Network Interaction pathway, steps the
// raw 8-bit core against a synthetic stimulus, then runs the full 128-node
// platform with the instruction-level engine in every router and compares it
// with the behavioural implementation.
package main

import (
	"fmt"
	"os"

	"centurion"
	"centurion/internal/picoblaze"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

func main() {
	// 1. Assemble and inspect the pathway.
	prog := picoblaze.MustAssemble(picoblaze.NIProgram)
	fmt.Printf("NI threshold pathway: %d instructions\n", len(prog))
	fmt.Println(picoblaze.Disassemble(prog[:8]) + "        ...")

	// 2. Drive one raw engine by hand: an idle sink node watching worker
	// traffic accumulate past its threshold.
	g := taskgraph.ForkJoin(taskgraph.DefaultForkJoinParams())
	engine, err := picoblaze.NewNIEngine(g, picoblaze.NIEngineParams{
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
	pb := centurion.NewSystem(
		centurion.WithModel(centurion.ModelNI),
		centurion.WithEmbeddedAIM(),
		centurion.WithSeed(3),
	)
	go_ := centurion.NewSystem(
		centurion.WithModel(centurion.ModelNI),
		centurion.WithSeed(3),
	)
	pb.RunMs(1000)
	go_.RunMs(1000)

	fmt.Printf("full platform, 1000 ms, seed 3:\n")
	fmt.Printf("  embedded PicoBlaze NI: %5d instances, %d switches\n",
		pb.Throughput(), pb.Counters().TaskSwitches)
	fmt.Printf("  behavioural Go NI:     %5d instances, %d switches\n",
		go_.Throughput(), go_.Counters().TaskSwitches)
	if pb.Counters() != go_.Counters() {
		fmt.Println("  -> dynamics diverged (see TestEmbeddedAIMOption)")
		os.Exit(1)
	}
	fmt.Println("  -> bit-identical dynamics: the embedded pathway IS the model")
}
