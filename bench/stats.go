package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// tailLadder is the percentiles a timing may be reported at, lowest first.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// slice by nearest rank — the rule sim.Series uses, so figures computed
// here equal the ones asvmbench prints.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := rankOf(p, len(sorted)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples. The epsilon keeps 99.9 % of 10,000 at 9,990, not 9,991.
func rankOf(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// supportedTail picks the highest ladder percentile, no higher than want,
// that still has at least ten samples beyond it. ok is false when even the
// median has fewer than ten samples above it; callers then report the
// maximum and say so.
func supportedTail(n int, want float64) (p float64, ok bool) {
	for _, q := range tailLadder {
		if q > want {
			break
		}
		if n-rankOf(q, n) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

// summary is the median and supported tail of one timing series.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64 // 100 means "maximum": no percentile had ten samples beyond it
}

func summarize(samples []float64, want float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), P50: percentile(s, 50)}
	if p, ok := supportedTail(len(s), want); ok {
		out.Tail, out.TailPct = percentile(s, p), p
	} else if len(s) > 0 {
		out.Tail, out.TailPct = s[len(s)-1], 100
	}
	return out
}

func (s summary) tailLabel() string {
	if s.TailPct == 100 {
		return "max"
	}
	return "p" + strconv.FormatFloat(s.TailPct, 'f', -1, 64)
}

func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
