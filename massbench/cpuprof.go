package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuLayers are the program packages a CPU sample is charged to, reported
// as cpu.<layer> shares; "gc" collects the collector's own work.
var cpuLayers = []string{"des", "netsim", "pdes", "cluster", "fluid", "routing", "gc"}

// gcRoots mark a stack as garbage-collector work wherever they appear.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.GC"}

// StartCPUProfile starts the runtime CPU profiler writing to path; the
// returned function stops it and closes the file.
func StartCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// CPUShares aggregates the profile at path by layer with the installed
// `go tool pprof`: every sample is charged to the innermost frame that
// belongs to a massf/internal package (so runtime helpers count toward the
// layer that called them), or to gc when the stack is collector work.
// Shares are of all samples; unattributed samples make up the rest.
func CPUShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(out))
}

// parseTraces implements CPUShares over `pprof -traces` text: blocks
// separated by "-----------+" rule lines, each a sample value followed by
// its stack, leaf first.
func parseTraces(text string) (map[string]float64, error) {
	by := map[string]time.Duration{}
	var total time.Duration
	var val time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			by[layerOf(stack)] += val
			total += val
		}
		stack, val = nil, 0
	}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(strings.TrimSpace(line), "-----------+") {
			flush()
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		f := strings.Fields(line)
		if len(stack) == 0 && val == 0 {
			d, err := time.ParseDuration(f[0])
			if err != nil {
				return nil, fmt.Errorf("pprof traces: bad sample value %q", f[0])
			}
			val = d
			if len(f) > 1 {
				stack = append(stack, f[1])
			}
			continue
		}
		stack = append(stack, f[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = float64(by[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, nil
}

// layerOf names the layer a stack (leaf first) is charged to.
func layerOf(stack []string) string {
	for _, fn := range stack {
		for _, g := range gcRoots {
			if strings.HasPrefix(fn, g) {
				return "gc"
			}
		}
	}
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, "massf/internal/"); ok {
			if i := strings.IndexAny(rest, "/."); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return "other"
}
