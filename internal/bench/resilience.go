package bench

import (
	"fmt"
	"math"

	"github.com/fragmd/fragmd/internal/cluster"
	"github.com/fragmd/fragmd/internal/coord"
)

// Resilience sweeps simulated per-worker node failure rates against
// throughput and lost work on the cluster simulator (DESIGN.md §7):
// the machine runs the same urea workload under ever-shorter MTBFs,
// recovering every failed attempt by re-queueing it on a surviving (or
// restarted) worker. The run must complete every time step at every
// failure rate — resilience trades throughput, never trajectory — so
// the sweep reports recoveries, lost work and restart downtime next to
// the failure-free baseline, plus one permanent-failure row where dead
// nodes never come back.
func Resilience(c *Config) {
	nMol, nodes := 256, 8
	if !c.Quick {
		nMol, nodes = 4000, 128
	}
	w := cluster.UreaWorkload(nMol, 1, 6.0, 0)
	m := cluster.Frontier()
	const steps = 3
	c.printf("resilience — failure injection: throughput and lost work vs node MTBF\n\n")
	c.printf("Workload: %s, %d steps\n", w, steps)

	base, err := cluster.Simulate(w, m, cluster.Options{
		Nodes: nodes, Steps: steps, Async: true, Seed: c.Seed, Jitter: c.Jitter,
	})
	if err != nil {
		c.fail("resilience: " + err.Error())
		return
	}
	// Restart downtime scaled to this workload's horizon (a real node
	// reboot is minutes against an hours-long production run; a fixed
	// 30 s against a ~20 ms simulated sweep would drown the signal).
	m.RestartSeconds = base.Makespan / 10
	c.printf("Machine: %s, %d nodes (%d GCDs), %.2g s restart\n\n",
		m.Name, nodes, nodes*m.GCDsPerNode, m.RestartSeconds)

	type row struct {
		name      string
		mtbf      float64
		permanent bool
	}
	rows := []row{
		{"no failures", 0, false},
		{"mtbf 10×span", 10 * base.Makespan, false},
		{"mtbf 2×span", 2 * base.Makespan, false},
		{"mtbf span/2", base.Makespan / 2, false},
		{"mtbf span/8", base.Makespan / 8, false},
		{"10×span perm", 10 * base.Makespan, true},
	}
	c.printf("%14s %10s %12s %10s %9s %9s %8s %9s\n",
		"config", "ms/step", "tasks/s", "recovered", "lost s", "restart s", "evicted", "slowdown")
	sawRecovery := false
	for _, r := range rows {
		res, err := cluster.Simulate(w, m, cluster.Options{
			Nodes: nodes, Steps: steps, Async: true, Seed: c.Seed, Jitter: c.Jitter,
			MTBF: r.mtbf, FailPermanent: r.permanent, Schedule: coord.Schedule{MaxRetries: 100},
		})
		if err != nil {
			c.fail(fmt.Sprintf("resilience: %s: %v", r.name, err))
			return
		}
		c.printf("%14s %10.2f %12.0f %10d %9.3f %9.3f %8d %7.2fx\n",
			r.name, 1e3*res.AvgStep, res.Throughput, res.Recoveries,
			res.LostWork, res.RestartOverhead, res.Evicted, res.AvgStep/base.AvgStep)
		// Completing the sweep means zero lost time steps: Simulate only
		// returns once the policy has completed every (polymer, step).
		if len(res.StepSeconds) != steps {
			c.fail("a simulated run lost time steps")
			return
		}
		for _, s := range res.StepSeconds {
			if s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
				c.fail("a simulated run lost time steps")
				return
			}
		}
		if r.mtbf > 0 && res.Recoveries > 0 {
			sawRecovery = true
		}
		// No faster-than-baseline assertion: retries reshuffle the
		// shared jitter draw sequence and list-scheduling anomalies can
		// legitimately nudge a lightly-failing run below the baseline;
		// the slowdown column reports the trend instead.
		if r.permanent && res.Evicted == 0 && res.Recoveries > 0 {
			c.fail("permanent failures recovered tasks without evicting workers")
		}
	}
	if !sawRecovery {
		c.fail("no failure rate in the sweep produced a recovery — the MTBF process never fired")
	}
	c.printf("\nShape to verify: throughput degrades smoothly as MTBF shrinks —\n")
	c.printf("lost work and restart downtime grow, but every run completes all\n")
	c.printf("%d time steps (recoveries re-queue in-flight work on surviving\n", steps)
	c.printf("workers; the trajectory itself is never shortened).\n")
}
