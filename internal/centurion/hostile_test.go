package centurion

// The fault engine's determinism contract at the platform level, in three
// parts (ISSUE 7):
//
//  1. An empty schedule is bit-identical to no schedule at all — arming the
//     engine costs nothing observable.
//  2. A single-instant death schedule is bit-identical to the bare scheduled
//     InjectFaults call it replaced, fresh and across pooled Reset reuse.
//  3. Hostile timelines (churn, flaky links, cascades, byzantine routers)
//     are themselves deterministic: the dense oracle and production
//     stepping agree tick for tick, and a dirtied, Reset platform replays
//     the exact run — on mesh, torus and cmesh. CI drives this suite under
//     -race.

import (
	"fmt"
	"testing"

	"centurion/internal/aim"
	"centurion/internal/faults"
	"centurion/internal/sim"
	"centurion/internal/taskgraph"
)

// hostileProfiles is one timeline per fault kind, shaped to land inside a
// 200 ms drive (churn revives at 100 ms, the cascade's last wave at 150 ms).
var hostileProfiles = []faults.Profile{
	{Kind: faults.KindChurn, AtMs: 40, Nodes: 10, ReviveAfterMs: 60},
	{Kind: faults.KindFlaky, AtMs: 20, Links: 8, PeriodMs: 30, DutyPct: 40},
	{Kind: faults.KindCascade, AtMs: 30, Nodes: 6, Waves: 4, WaveDelayMs: 30, WaveRadius: 3, WaveDecayPct: 60},
	{Kind: faults.KindByzantine, AtMs: 25, Routers: 6, RatePct: 35, Modes: "misroute,drop,dup"},
}

// driveHostile applies the schedule and runs the platform for 200 ms (under
// the dense oracle when dense), snapshotting the same observables the
// stepping-equivalence suite checks.
func driveHostile(p *Platform, dense bool, sched faults.Schedule) steppingSnapshot {
	if !sched.Empty() {
		NewController(p).ApplySchedule(sched)
	}
	return driveStepping(p, dense, nil)
}

// buildHostile compiles a profile against a platform's own fabric.
func buildHostile(t *testing.T, p *Platform, prof faults.Profile, seed uint64) faults.Schedule {
	t.Helper()
	sched, err := faults.Build(p.Topo, seed, prof, 200)
	if err != nil {
		t.Fatalf("building %s schedule: %v", prof.Kind, err)
	}
	return sched
}

// TestFaultScheduleEmptyBitIdentical proves arming the fault engine with an
// empty timeline changes nothing: counters, fabric stats, per-window series
// and per-node state all match a run that never touched the engine, both in
// production and under the dense oracle.
func TestFaultScheduleEmptyBitIdentical(t *testing.T) {
	for _, topo := range []string{"mesh", "torus", "cmesh"} {
		for _, dense := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/dense=%v", topo, dense), func(t *testing.T) {
				cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 3)
				cfg.Topology = topo
				bare := driveStepping(New(cfg), dense, nil)
				armed := driveHostile(New(cfg), dense, faults.Schedule{})
				compareSnapshots(t, bare, armed)
			})
		}
	}
}

// TestFaultScheduleLegacyDeathBitIdentical proves the compatibility anchor:
// a death-profile schedule replays the historical single-instant injection
// bit for bit — same RNG salt, same node draw, same event-queue path —
// across models × seeds × topologies.
func TestFaultScheduleLegacyDeathBitIdentical(t *testing.T) {
	models := []struct {
		name    string
		factory aim.Factory
		mapper  taskgraph.Mapper
	}{
		{"none", aim.NewNone, taskgraph.HeuristicMapper{}},
		{"ni", aim.NewNIFactory(aim.DefaultNIParams()), taskgraph.RandomMapper{}},
		{"ffw", aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}},
	}
	for _, m := range models {
		for seed := uint64(1); seed <= 2; seed++ {
			for _, topo := range []string{"mesh", "torus", "cmesh"} {
				t.Run(fmt.Sprintf("%s/seed=%d/%s", m.name, seed, topo), func(t *testing.T) {
					cfg := DefaultConfig(m.factory, m.mapper, seed)
					cfg.Topology = topo

					legacy := New(cfg)
					nodes := faults.RandomNodes(legacy.Topo, 12, sim.NewRNG(seed^0xfa17517e5eed))
					want := driveStepping(legacy, false, nodes)

					engine := New(cfg)
					sched := buildHostile(t, engine, faults.Profile{Kind: faults.KindDeath, AtMs: 50, Nodes: 12}, seed)
					compareSnapshots(t, want, driveHostile(engine, false, sched))
				})
			}
		}
	}
}

// TestFaultScheduleLegacyDeathPooledReuse extends the anchor through the
// platform pool's lifecycle: a platform dirtied by a hostile cascade run,
// then Reset, must replay the death schedule identically to a fresh legacy
// reference.
func TestFaultScheduleLegacyDeathPooledReuse(t *testing.T) {
	for _, topo := range []string{"mesh", "torus", "cmesh"} {
		t.Run(topo, func(t *testing.T) {
			cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 999)
			cfg.Topology = topo
			reused := New(cfg)
			driveHostile(reused, false, buildHostile(t, reused, hostileProfiles[2], 0xd117))

			for seed := uint64(1); seed <= 2; seed++ {
				refCfg := cfg
				refCfg.Seed = seed
				legacy := New(refCfg)
				nodes := faults.RandomNodes(legacy.Topo, 12, sim.NewRNG(seed^0xfa17517e5eed))
				want := driveStepping(legacy, false, nodes)

				reused.Reset(seed)
				sched := buildHostile(t, reused, faults.Profile{Kind: faults.KindDeath, AtMs: 50, Nodes: 12}, seed)
				compareSnapshots(t, want, driveHostile(reused, false, sched))
			}
		})
	}
}

// TestHostileSteppingEquivalence runs every hostile timeline on every
// fabric in production and under the dense oracle: revivals, link flaps,
// cascade waves and byzantine interference must not break the bit-identity
// contract.
func TestHostileSteppingEquivalence(t *testing.T) {
	for _, topo := range []string{"mesh", "torus", "cmesh"} {
		for _, prof := range hostileProfiles {
			t.Run(fmt.Sprintf("%s/%s", topo, prof.Kind), func(t *testing.T) {
				cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 5)
				cfg.Topology = topo

				dp := New(cfg)
				dense := driveHostile(dp, true, buildHostile(t, dp, prof, 5))

				ap := New(cfg)
				active := driveHostile(ap, false, buildHostile(t, ap, prof, 5))
				compareSnapshots(t, dense, active)
			})
		}
	}
}

// TestHostilePooledReuse proves hostile runs replay exactly across Reset:
// one platform per fabric is dirtied by a byzantine run, then Reset and
// re-driven through every hostile timeline — each must match a fresh
// reference platform bit for bit.
func TestHostilePooledReuse(t *testing.T) {
	for _, topo := range []string{"mesh", "torus", "cmesh"} {
		t.Run(topo, func(t *testing.T) {
			cfg := DefaultConfig(aim.NewFFWFactory(aim.DefaultFFWParams()), taskgraph.RandomMapper{}, 999)
			cfg.Topology = topo
			reused := New(cfg)
			driveHostile(reused, false, buildHostile(t, reused, hostileProfiles[3], 0xbada))

			for _, prof := range hostileProfiles {
				refCfg := cfg
				refCfg.Seed = 6
				fresh := New(refCfg)
				want := driveHostile(fresh, false, buildHostile(t, fresh, prof, 6))

				reused.Reset(6)
				got := driveHostile(reused, false, buildHostile(t, reused, prof, 6))
				compareSnapshots(t, want, got)
			}
		})
	}
}
