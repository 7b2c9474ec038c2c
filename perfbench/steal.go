package main

import (
	"os"
	"strconv"
	"strings"
)

// cpuTicks is the aggregate line of /proc/stat: ticks the VM's vCPUs ran
// and ticks the hypervisor stole from them while they wanted to run.
type cpuTicks struct {
	busy, steal uint64
	ok          bool
}

func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	return parseCPUTicks(string(data))
}

// parseCPUTicks reads "cpu user nice system idle iowait irq softirq steal ...".
func parseCPUTicks(stat string) cpuTicks {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]uint64
	for i := range v {
		n, err := strconv.ParseUint(f[i+1], 10, 64)
		if err != nil {
			return cpuTicks{}
		}
		v[i] = n
	}
	// user, nice, system, irq and softirq; idle and iowait are not busy
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7], ok: true}
}

// stealShare is the share of the vCPU time wanted between a and b that the
// hypervisor took instead of running it; 0 when /proc/stat is unreadable.
// On a shared VM this is the dominant run-to-run noise: a campaign's wall
// time stretches by 1/(1-share) while its work stays the same.
func stealShare(a, b cpuTicks) float64 {
	if !a.ok || !b.ok || b.steal < a.steal || b.busy < a.busy {
		return 0
	}
	steal := float64(b.steal - a.steal)
	return ratio(steal, float64(b.busy-a.busy)+steal)
}
