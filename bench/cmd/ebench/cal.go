package main

import (
	"encoding/json"
	"strconv"
	"sync"
	"time"

	"entityid/bench/plan"
)

// The box this benchmark runs on is a few cores of a shared host, and
// its speed wanders by a fifth and more for minutes at a time: twelve
// minutes of point reads against one daemon spread 23 % between their
// quartiles whether counted per 3 s or per 50 s, so no run, however
// long, averages it away. What does cancel it is measuring the box
// beside the program: a fixed piece of Go — JSON encoding and decoding,
// map updates, small allocations, what the daemon's own code is made of
// — run for a moment on every core between the slices of the timed
// phases, while the daemon is idle. Over those twelve minutes its rate
// followed the daemon's reads with a correlation of 0.92 in windows of
// 26 s and 0.97 in windows of 52 s, and reads divided by it spread 3 to
// 5 %. Pure arithmetic and pointer chasing were tried and followed less
// well (0.8–0.9).
//
// Every timed end-to-end metric is therefore reported in reference
// seconds: wall-clock seconds multiplied by the box's speed, as a share
// of refRate, averaged over some thirty readings spread through the
// run. One reading is too short to trust — the box also stalls for
// tenths of a second at a time, and a burst either meets a stall or
// does not — so no slice is paired with the readings next to it; the
// run's mean was the steadier scale in every set of runs tried. On a
// box that runs at refRate the numbers are wall-clock numbers;
// elsewhere they are what this box's wall clock would have shown at
// that speed. The env line of a run carries the wall-clock values and
// the factor, and client.box_speed is the factor again.

// refRate is the reference box: kernel passes per second summed over
// min(2, nproc) cores. It is the median of this sandbox over twelve
// minutes on the day the kernel was written; it only fixes the unit.
const refRate = 17500.0

// calBurst is how long one reading of the box's speed runs in a run of
// the nominal length; like every window, it scales with --seconds.
const calBurst = 150 * time.Millisecond

func burstFor(seconds int) time.Duration {
	return calBurst * time.Duration(seconds) / plan.NominalSeconds
}

// calRecord is what the kernel encodes and decodes; the shape is a
// tuple line of the workload.
type calRecord struct {
	Source string   `json:"source"`
	Tuple  []string `json:"tuple"`
	N      int      `json:"n"`
}

// calKernel runs passes of fixed work until d has gone by and returns
// its rate in passes per second. The kernel is part of the unit of
// every timed metric: changing it changes what the numbers mean.
func calKernel(d time.Duration) float64 {
	seen := map[string]int{}
	passes := 0
	start := time.Now()
	for time.Since(start) < d {
		for i := 0; i < 50; i++ {
			r := calRecord{Source: "src1", Tuple: []string{"name" + strconv.Itoa(i), "loc", "cuisine", "555-1234"}, N: i}
			b, _ := json.Marshal(r) // cannot fail on this type
			var back calRecord
			_ = json.Unmarshal(b, &back) // nor this on its output
			seen[back.Tuple[0]] += len(b)
		}
		passes++
	}
	if len(seen) != 50 {
		panic("the calibration kernel lost keys") // it decodes what it encoded
	}
	return float64(passes) / time.Since(start).Seconds()
}

// speedometer reads the box's speed and remembers every reading.
type speedometer struct {
	cores    int
	burst    time.Duration
	readings []float64
}

// read takes one reading of the box's speed, bursts bursts long, on
// every core at once. Call it when the daemon is idle: a burst beside
// background work reads the work, not the box.
func (s *speedometer) read(bursts int) {
	rates := make([]float64, s.cores)
	var wg sync.WaitGroup
	for i := range rates {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rates[i] = calKernel(time.Duration(bursts) * s.burst)
		}(i)
	}
	wg.Wait()
	var sum float64
	for _, r := range rates {
		sum += r
	}
	s.readings = append(s.readings, sum/refRate)
}

// mean is the box's speed as a share of the reference box's: the mean
// of all readings so far.
func (s *speedometer) mean() float64 { return mean(s.readings) }
