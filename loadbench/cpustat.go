package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// cpuTimes reads the machine-wide CPU counters from /proc/stat: total
// jiffies and the part stolen by the hypervisor for other guests.
func cpuTimes() (total, steal uint64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal, nil
}
