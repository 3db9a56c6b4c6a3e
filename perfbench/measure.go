package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailSamples is how many samples must lie beyond a reported tail.
const tailSamples = 10

// tailStat is the highest percentile of a sample that has at least
// tailSamples samples beyond it, with the count it was taken from.
type tailStat struct {
	Value      float64
	Percentile float64
	N          int
}

// tail returns the highest percentile of xs with at least ten samples
// beyond it; ok is false when xs has too few samples to have one.
func tail(xs []float64) (t tailStat, ok bool) {
	n := len(xs)
	if n <= tailSamples {
		return tailStat{N: n}, false
	}
	s := sorted(xs)
	rank := n - tailSamples // 1-based rank of the tail sample
	return tailStat{Value: s[rank-1], Percentile: 100 * float64(rank) / float64(n), N: n}, true
}

func (t tailStat) String() string {
	return fmt.Sprintf("p%.2f of %d samples, %d beyond", t.Percentile, t.N, tailSamples)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB is the peak resident set of this process in MiB (Linux
// reports ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// digest is the short content hash the reference digests record.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}
