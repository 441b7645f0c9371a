package main

import (
	"bytes"
	"strings"
	"time"

	"leakest"
	"leakest/internal/netlist"
)

// scanCount runs netlist.ScanPlaced over buf with a visitor that only
// counts gates, returning the count, the seconds taken and the heap
// objects allocated.
func scanCount(buf []byte) (gates int, sec, allocs float64, err error) {
	a0 := mallocs()
	start := time.Now()
	_, err = netlist.ScanPlaced(bytes.NewReader(buf), netlist.StreamVisitor{
		Gate: func(int, []byte, int, int) error { gates++; return nil },
	})
	sec = time.Since(start).Seconds()
	allocs = mallocs() - a0
	return gates, sec, allocs, err
}

// probeDesignIO runs the netlist probes on placed designs: ReadBench of
// each design's .bench rendering, and ScanPlaced over its leakest-stream
// rendering.
func probeDesignIO(m map[string]float64, ds []placedDesign) error {
	var readSec, scanSec, scanAllocs float64
	scanned := 0
	for _, d := range ds {
		var b strings.Builder
		if err := leakest.WriteBench(&b, d.nl); err != nil {
			return err
		}
		start := time.Now()
		if _, err := leakest.ReadBench(strings.NewReader(b.String()), d.name); err != nil {
			return err
		}
		readSec += time.Since(start).Seconds()

		var sb bytes.Buffer
		if err := leakest.WriteStream(&sb, d.nl, d.pl, 4); err != nil {
			return err
		}
		n, sec, allocs, err := scanCount(sb.Bytes())
		if err != nil {
			return err
		}
		scanned += n
		scanSec += sec
		scanAllocs += allocs
	}
	m["netlist.read_bench_s"] = readSec / float64(len(ds))
	m["netlist.scan_gates_per_s"] = float64(scanned) / scanSec
	m["netlist.scan_allocs"] = scanAllocs / float64(len(ds))
	return nil
}
