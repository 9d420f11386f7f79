package centurion

import (
	"reflect"
	"strings"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/noc"
	"centurion/internal/taskgraph"
)

func TestQuickstartFlow(t *testing.T) {
	sys := NewSystem(WithModel(ModelFFW), WithSeed(1))
	sys.RunMs(300)
	if sys.Throughput() == 0 {
		t.Fatal("no throughput")
	}
	if got := sys.NowMs(); got != 300 {
		t.Errorf("NowMs = %v", got)
	}
	counts := sys.TaskCounts()
	total := 0
	for _, c := range counts[1:] {
		total += c
	}
	if total != 128 {
		t.Errorf("task counts %v do not cover 128 nodes", counts)
	}
	if sys.AliveNodes() != 128 {
		t.Errorf("AliveNodes = %d", sys.AliveNodes())
	}
}

func TestModelsDiffer(t *testing.T) {
	none := NewSystem(WithModel(ModelNone), WithSeed(2))
	ffw := NewSystem(WithModel(ModelFFW), WithSeed(2))
	none.RunMs(200)
	ffw.RunMs(200)
	if none.Counters().TaskSwitches != 0 {
		t.Error("baseline switched tasks")
	}
	if ffw.Counters().TaskSwitches == 0 {
		t.Error("FFW never switched from the random mapping")
	}
}

func TestFaultInjectionAPI(t *testing.T) {
	sys := NewSystem(WithModel(ModelNone), WithSeed(3))
	if err := sys.ApplyFaultProfile(FaultProfile{Kind: "death", AtMs: 100, Nodes: 16}, 3, 300); err != nil {
		t.Fatal(err)
	}
	sys.RunMs(100)
	if got := sys.AliveNodes(); got != 128 {
		t.Errorf("AliveNodes before the death wave = %d", got)
	}
	sys.RunMs(1)
	if got := sys.AliveNodes(); got != 112 {
		t.Errorf("AliveNodes after 16 faults = %d", got)
	}
	sys.InjectRegionFault(0, 0, 1) // corner epicentre, radius 1
	if got := sys.AliveNodes(); got > 112-1 {
		t.Errorf("region fault killed nothing (alive %d)", got)
	}
	pre := sys.Throughput()
	sys.RunMs(100)
	if sys.Throughput() == pre {
		t.Error("platform dead after partial faults")
	}
}

func TestCustomSizeAndGraph(t *testing.T) {
	sys := NewSystem(WithSize(6, 6), WithGraph(GraphPipeline), WithSeed(4))
	sys.RunMs(300)
	if sys.Throughput() == 0 {
		t.Error("pipeline on 6x6 completed nothing")
	}
	d := NewSystem(WithSize(8, 8), WithGraph(GraphDiamond), WithSeed(4), WithModel(ModelFFW))
	d.RunMs(300)
	if d.Throughput() == 0 {
		t.Error("diamond on 8x8 completed nothing")
	}
}

func TestCustomGraphOption(t *testing.T) {
	g := taskgraph.Pipeline(3, 100, 10)
	sys := NewSystem(WithCustomGraph(g), WithSeed(5))
	sys.RunMs(200)
	if sys.Throughput() == 0 {
		t.Error("custom graph completed nothing")
	}
}

// TestEmbeddedAIMOption: the PicoBlaze-hosted NI produces the behavioural
// NI's dynamics on the full platform — same decisions, same counters — for
// every built-in graph, not only the 3-task fork–join (the equivalence is
// proven per engine in internal/picoblaze; this checks the wiring).
func TestEmbeddedAIMOption(t *testing.T) {
	for _, tc := range []struct {
		name  string
		graph Graph
	}{
		{"forkjoin", GraphForkJoin},
		{"pipeline", GraphPipeline},
		{"diamond", GraphDiamond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := NewSystem(WithModel(ModelNIPB), WithGraph(tc.graph), WithSeed(3))
			sys.RunMs(1000)
			if sys.Throughput() == 0 {
				t.Fatal("embedded-AIM platform completed nothing")
			}
			ref := NewSystem(WithModel(ModelNI), WithGraph(tc.graph), WithSeed(3))
			ref.RunMs(1000)
			if ref.Counters() != sys.Counters() {
				t.Errorf("embedded vs behavioural NI diverged:\n  pb: %+v\n  go: %+v",
					sys.Counters(), ref.Counters())
			}
		})
	}
}

func TestParamOptions(t *testing.T) {
	ni := aim.DefaultNIParams()
	ni.Threshold = 10
	sysA := NewSystem(WithModel(ModelNI), WithNIParams(ni), WithSeed(7))
	sysB := NewSystem(WithModel(ModelNI), WithSeed(7))
	sysA.RunMs(300)
	sysB.RunMs(300)
	if sysA.Counters().TaskSwitches == sysB.Counters().TaskSwitches {
		t.Log("warning: threshold override produced identical switch counts (possible but unlikely)")
	}

	ffw := aim.DefaultFFWParams()
	ffw.Timeout = 50
	sysC := NewSystem(WithModel(ModelFFW), WithFFWParams(ffw), WithSeed(7))
	sysC.RunMs(100)
}

func TestNeighborSignalsOption(t *testing.T) {
	ni := aim.DefaultNIParams()
	ni.NeighborWeight = 4
	sys := NewSystem(WithModel(ModelNI), WithNIParams(ni), WithNeighborSignals(), WithSeed(8))
	sys.RunMs(200)
	if sys.Throughput() == 0 {
		t.Error("information-transfer extension broke the platform")
	}
}

func TestMapASCII(t *testing.T) {
	sys := NewSystem(WithSeed(9))
	art := sys.MapASCII()
	lines := strings.Split(strings.TrimSpace(art), "\n")
	if len(lines) != 8 || len(lines[0]) != 16 {
		t.Fatalf("map is %dx%d, want 8 lines of 16", len(lines), len(lines[0]))
	}
	sys.InjectRegionFault(0, 0, 0) // radius 0: just the corner node
	if !strings.HasPrefix(sys.MapASCII(), "x") {
		t.Error("dead node not marked in map")
	}
}

func TestControllerAccess(t *testing.T) {
	sys := NewSystem(WithSeed(10))
	if err := sys.Controller().SendConfig(noc.NodeID(5), noc.OpNodeFrequency, 2, 0); err != nil {
		t.Fatal(err)
	}
	sys.RunMs(10)
	rep := sys.Controller().ReadNode(5)
	if !rep.Alive {
		t.Error("node 5 reported dead")
	}
	if sys.Platform() == nil {
		t.Error("Platform() returned nil")
	}
}

func TestWriteFig4CSVAPI(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	var b strings.Builder
	if err := WriteFig4CSV(&b, 5, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "time_ms") {
		t.Error("CSV missing header")
	}
}

func TestRunSpecServiceEntry(t *testing.T) {
	spec := ServiceSpec{Model: "ffw", Seed: 3, DurationMs: 40, Width: 8, Height: 4}
	res, err := RunSpec(spec)
	if err != nil {
		t.Fatalf("RunSpec: %v", err)
	}
	if len(res.Runs) != 1 || res.Series == nil {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	res2, err := RunSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Runs[0], res2.Runs[0]) {
		t.Error("RunSpec is not deterministic for identical specs")
	}
	if _, err := RunSpec(ServiceSpec{Model: "zerg"}); err == nil {
		t.Error("RunSpec accepted an invalid spec")
	}
}
