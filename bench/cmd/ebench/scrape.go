package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// scrape is one reading of the daemon's /metrics: series text (name
// with its label set, as exposed) to value. Histogram buckets are not
// kept; sums and counts are.
type scrape map[string]float64

func parseScrape(body []byte) scrape {
	s := scrape{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "_bucket{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			s[line[:i]] = v
		}
	}
	return s
}

func fetchScrape(addr string) (scrape, error) {
	c, err := dial(addr, ctlTimeout)
	if err != nil {
		return nil, err
	}
	defer c.close()
	_ = c.c.SetDeadline(time.Now().Add(ctlTimeout)) // a failure shows as an error on the write
	status, body, err := c.do(renderGet("/metrics"), nil)
	if err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	if status != 200 {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseScrape(body), nil
}

// delta reads how far a series moved between two scrapes. ok is false
// when the later scrape does not have the series: the family is gone
// from the program, and the metrics built on it are dropped with a
// warning instead of failing the run.
func delta(before, after scrape, series string) (v float64, ok bool) {
	a, ok := after[series]
	return a - before[series], ok
}
