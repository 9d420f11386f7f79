// Package centurion is a from-scratch reproduction of "Embedded Social
// Insect-Inspired Intelligence Networks for System-level Runtime Management"
// (Rowlings, Tyrrell, Trefzer — DATE 2020).
//
// It provides a deterministic simulator of the paper's Centurion many-core
// platform — a 16×8 mesh of wormhole NoC routers, processing elements and
// embedded Artificial Intelligence Modules (AIMs) — together with the
// paper's three runtime-management schemes (no intelligence, Network
// Interaction, Foraging for Work), its fork–join workload, fault injection,
// and the experiment harness that regenerates Table I, Table II and
// Figure 4.
//
// # Quick start
//
//	sys := centurion.NewSystem(
//		centurion.WithModel(centurion.ModelFFW),
//		centurion.WithSeed(1),
//	)
//	death := centurion.FaultProfile{Kind: "death", AtMs: 500, Nodes: 16}
//	if err := sys.ApplyFaultProfile(death, 1, 1000); err != nil {
//		log.Fatal(err)
//	}
//	sys.RunMs(1000)
//	fmt.Println(sys.Throughput(), "instances completed")
//
// NewSystem, `centurion run` and the service build a run in one way: the
// options fill the same experiment spec the service's JSON run spec
// becomes, and faults take the same path (a fault profile compiled into a
// schedule on the simulation's event queue). The system above therefore
// completes exactly what {"model":"ffw","num_faults":16,"fault_at_ms":500}
// does when served. The models are ModelNone, ModelNI, ModelFFW,
// ModelRandomStatic and ModelNIPB (the NI pathway as PicoBlaze code on
// every router). The package's examples run as tests with pinned output.
//
// # Reproducing the paper's evaluation
//
//	t1 := centurion.RunTable1(100, 1)
//	fmt.Print(t1.Render())
//
// # Simulation as a service
//
// Any experiment the simulator supports can also be submitted as a JSON
// run spec — directly via RunSpec, or over the REST API started with
// Serve (POST /v1/runs, SSE streaming, batch sweeps with mean ± CI
// aggregation, an LRU result cache keyed on the canonical spec):
//
//	res, err := centurion.RunSpec(centurion.ServiceSpec{Model: "ffw", Seed: 7})
//	// or: centurion serve -addr :8080 -workers 4
//
// The service scales horizontally with `centurion worker` daemons that
// lease sweep jobs from the coordinator. The fabric is chaos-hardened:
// `serve -journal DIR` keeps a durable job journal replayed on restart
// (a coordinator crash costs clients at most a retry, never a lost job),
// and workers checkpoint in-flight runs every `-checkpoint-every`
// simulated milliseconds (0 = never commit) so a killed worker's successor
// resumes mid-run bit-identically instead of starting over.
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for measured
// results versus the paper.
package centurion
