package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// median returns the median of xs (0 for an empty slice).
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

// tail returns the highest-ranked sample that still has at least
// tailBeyond samples above it, and the percentile it sits at. ok is
// false when there are too few samples for such a value to exist.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n < tailBeyond+1 {
		return 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := n - 1 - tailBeyond
	return s[i], 100 * float64(i+1) / float64(n), true
}

// growthExp is the exponent k of t ∝ n^k fitted through two points; 0
// when either point is degenerate.
func growthExp(n1, t1, n2, t2 float64) float64 {
	if n1 <= 0 || n2 <= 0 || t1 <= 0 || t2 <= 0 || n1 == n2 {
		return 0
	}
	return math.Log(t2/t1) / math.Log(n2/n1)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB; 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				kb, err := strconv.ParseInt(fields[0], 10, 64)
				if err == nil {
					return float64(kb) / 1024
				}
			}
		}
	}
	return 0
}

// deriveSeed mixes the workload seed with a stream index (splitmix64),
// so every chip, delta and sample of a run follows from --seed alone.
func deriveSeed(seed int64, stream ...int64) int64 {
	x := uint64(seed)
	for _, s := range stream {
		x += 0x9e3779b97f4a7c15 * uint64(s+1)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 2)
}
