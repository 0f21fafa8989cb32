package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// Machine-speed correction.
//
// The box this benchmark runs on drifts: for minutes at a time everything
// — Learn, a 1 ms request, a 45 ms recovery — runs a quarter slower, then
// recovers. Over a set of runs that drift, not the program, was most of
// every time metric's spread. So each run times a fixed piece of work
// that uses nothing from this repository, a few times at each boundary
// between its phases, and scales its time metrics by nominal ÷ the median
// of those samples: reported times are milliseconds at the reference
// speed. The raw figures stay in the -out file next to the corrected ones.
// (One factor per run: a factor per phase, from the samples around that
// phase alone, was tried and was noisier than the drift it removed.)
//
// Measured before adopting it (alternating calibration, 7 000-offer
// one-shot runs and 16-offer requests, folded into 20 s windows,
// interquartile distance over median, ten quiet minutes): one-shot 7.3 %
// raw, 4.5 % corrected; 16-offer request 8.9 % raw, 4.2 % corrected. The
// work tracks the slow drift; it does not see split-second hiccups (sample
// by sample the correlation is only 0.4), so the correction takes out the
// regime shifts and leaves the rest.
//
// The work allocates nothing. A variant that allocated its arrays tracked
// the pipeline a little better, but its own time then depended on how
// large a heap the benchmark happened to hold at that boundary (the filler
// catalog added a third), which is exactly what a yardstick must not do.

const (
	// nominalCalibrationMs is what calibrate takes on the reference box (2
	// cores, go1.24) while it is quiet. It only fixes the scale;
	// comparisons between commits do not depend on it.
	nominalCalibrationMs = 46.0
	// calibrationSamples are taken at each phase boundary of a run.
	calibrationSamples = 4
	// calibrationItems sizes the work: two 1 MiB arrays per processor.
	calibrationItems = 1 << 17
)

// calibrationPad is one processor's working memory, allocated once.
type calibrationPad struct {
	xs    [calibrationItems]uint64
	table [calibrationItems]uint64
}

var (
	calibrationOnce sync.Once
	calibrationPads []*calibrationPad
	// calibrationSink keeps the compiler from discarding the work.
	calibrationSink uint64
)

// calibrate times the fixed work: on every processor at once, arithmetic,
// a sort, and hashed stores and loads over two megabytes.
func calibrate() float64 {
	calibrationOnce.Do(func() {
		calibrationPads = make([]*calibrationPad, runtime.GOMAXPROCS(0))
		for i := range calibrationPads {
			calibrationPads[i] = new(calibrationPad)
		}
	})
	start := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, len(calibrationPads))
	for g, pad := range calibrationPads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				sums[g] += pad.work(uint64(g*4 + round + 1))
			}
		}()
	}
	wg.Wait()
	for _, s := range sums {
		calibrationSink += s
	}
	return float64(time.Since(start)) / 1e6
}

func (c *calibrationPad) work(seed uint64) uint64 {
	x := seed
	for i := range c.xs {
		x = x*6364136223846793005 + 1442695040888963407
		c.xs[i] = x
	}
	slices.Sort(c.xs[:])
	clear(c.table[:])
	const mask = calibrationItems - 1
	for i, v := range c.xs {
		c.table[(v*0x9e3779b97f4a7c15>>40)&mask] += uint64(i)
	}
	var sum uint64
	for i := 0; i < calibrationItems; i += 3 {
		sum += c.table[(c.xs[i]*0xbf58476d1ce4e5b9>>40)&mask] + c.xs[i]
	}
	return sum
}

// correct rescales a stat to the reference speed: times shrink when the
// machine was slow, rates grow. Counts and ratios are left alone.
func correct(s stat, factor float64) stat {
	s.Raw = s.Value
	switch s.Unit {
	case "ns", "ms", "s":
	case "offers/s", "MB/s", "1/s":
		factor = 1 / factor
	default:
		return s
	}
	s.Value *= factor
	s.Q1 *= factor
	s.Q3 *= factor
	return s
}
