package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the nearest-rank q-quantile of ds (q = 1 is the
// maximum); 0 for an empty sample.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s))-1e-9)) - 1 // nearest rank, robust to q·n rounding up
	return s[min(max(i, 0), len(s)-1)]
}

// medianDur returns the median of ds, averaging the two middle values of
// an even-sized sample.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}

// perKeySummary summarizes operations over a fixed population run in whole
// passes, where each key is one distinct input. Machine noise moves single
// samples, and the population is discrete, so a plain percentile can land
// between two keys and jump between them from run to run. The summary
// therefore works from each key's median time: throughput is the number of
// keys over the sum of their medians, the median is the median of the
// per-key medians, and the tail is the tailQ nearest-rank percentile of all
// samples.
func perKeySummary(times map[string][]time.Duration) (opsPerSec float64, p50, tail time.Duration, summary string) {
	var meds, all []time.Duration
	var sum time.Duration
	for _, ds := range times {
		m := medianDur(ds)
		meds = append(meds, m)
		sum += m
		all = append(all, ds...)
	}
	if sum > 0 {
		opsPerSec = float64(len(meds)) / sum.Seconds()
	}
	summary = fmt.Sprintf("%d operations over %d keys; p50_ms is the median of per-key medians, tail_ms the p%s of all %d",
		len(all), len(meds), strconv.FormatFloat(100*tailQ, 'f', -1, 64), len(all))
	return opsPerSec, medianDur(meds), quantile(all, tailQ), summary
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set size (VmHWM) from
// /proc/self/status, in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the kernel's peak resident set count (VmHWM) from
// the current resident set, so peakRSSMB then reports the peak since the
// reset. Where the kernel refuses, peaks stay cumulative over the process,
// which is still a peak, only a noisier one.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// relClose reports whether a and b agree to a relative tolerance.
func relClose(a, b, tol float64) bool {
	return a == b || math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// failures collects descriptions of wrong answers and failed operations;
// the first few are logged so a failing run says why.
type failures struct {
	n    int
	logs []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.logs) < 8 {
		f.logs = append(f.logs, fmt.Sprintf(format, args...))
	}
}
