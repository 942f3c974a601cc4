package main

import (
	"bufio"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sortedAt reads a sorted series at a fractional index, interpolating
// linearly and clamping to the ends; an empty series reads 0.
func sortedAt(s []float64, pos float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos = max(pos, 0)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func percentile(xs []float64, p float64) float64 {
	return sortedAt(sorted(xs), p*float64(len(xs)-1))
}

// quartiles cuts xs like Python's statistics.quantiles(xs, n=4): the
// exclusive method, positions p*(n+1). The repeatability rule is written in
// those terms. A single value is its own quartiles.
func quartiles(xs []float64) (q [3]float64) {
	s := sorted(xs)
	for i, p := range []float64{0.25, 0.5, 0.75} {
		q[i] = sortedAt(s, p*float64(len(s)+1)-1)
	}
	return q
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// statusMB reads a kB field of /proc/self/status: VmRSS, the resident set
// right now, or VmHWM, its high-water mark.
func statusMB(field string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuTicks reads the aggregate cpu line of /proc/stat: total and stolen
// ticks since boot. Steal is what the hypervisor took from this guest.
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
