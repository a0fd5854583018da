package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (which it sorts), or
// 0 for no samples; the printed sample count tells the two apart.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median returns the middle of xs (which it sorts), or the mean of the two
// middle values when there is an even number, or 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 || n%2 == 1 {
		return quantile(xs, 0.5)
	}
	sort.Float64s(xs)
	return (xs[n/2-1] + xs[n/2]) / 2
}

// beyond is how many of n samples lie above the nearest-rank q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapWatch samples the Go heap in use until stopped, keeping the peak
// overall and, when given a window, the peak of each whole window.
type heapWatch struct {
	stop    chan struct{}
	done    chan struct{}
	peak    uint64
	windows []uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapNow() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func watchHeap(window time.Duration) *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{}), peak: heapNow()}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		start := time.Now()
		var cur uint64
		for {
			select {
			case <-h.stop:
				return
			case now := <-tick.C:
				v := heapNow()
				h.peak = max(h.peak, v)
				if window <= 0 {
					continue
				}
				if w := int(now.Sub(start) / window); w > len(h.windows) {
					h.windows = append(h.windows, cur)
					cur = 0
				}
				cur = max(cur, v)
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak and the window peaks, in MB.
func (h *heapWatch) end() (float64, []float64) {
	close(h.stop)
	<-h.done
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	out := make([]float64, len(h.windows))
	for k, b := range h.windows {
		out[k] = mb(b)
	}
	return mb(max(h.peak, heapNow())), out
}
