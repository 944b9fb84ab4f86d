package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// CPU attribution. A traced run records a CPU profile of its measured
// window; each sample is charged to the innermost frame that belongs to
// the program (an atomiccommit/... function), mapped to its module.
// Samples with no such frame (the Go runtime's own work such as GC and
// scheduling, the benchmark's bookkeeping) are "other". The fractions sum
// to 1.

// cpuModules maps a function-name prefix to its module, most specific
// first.
var cpuModules = []struct{ prefix, module string }{
	{"atomiccommit/commit.", "commit"},
	{"atomiccommit/internal/live.", "live"},
	{"atomiccommit/internal/wire.", "wire"},
	{"atomiccommit/internal/protocols/", "protocols"},
	{"atomiccommit/internal/consensus.", "consensus"},
	{"atomiccommit/kv.", "kv"},
	{"atomiccommit/internal/obs.", "obs"},
}

var cpuModuleNames = []string{"commit", "live", "wire", "protocols", "consensus", "kv", "obs", "other"}

// cpuByModule reads a CPU profile with the toolchain's pprof and returns
// each module's share of the sampled CPU time.
func cpuByModule(profile *os.File) (map[string]float64, error) {
	if profile == nil {
		return nil, fmt.Errorf("no CPU profile was recorded")
	}
	out, err := exec.Command("go", "tool", "pprof", "-traces", profile.Name()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return attributeTraces(out)
}

// attributeTraces parses `pprof -traces` output: blocks separated by
// dashed lines, each opening with the sample value and its leaf frame,
// followed by one caller per line.
func attributeTraces(out []byte) (map[string]float64, error) {
	by := make(map[string]float64, len(cpuModuleNames))
	var total float64
	var value float64
	var module string
	flush := func() {
		if value > 0 {
			if module == "" {
				module = "other"
			}
			by[module] += value
			total += value
		}
		value, module = 0, ""
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inBlocks := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || line[0] != ' ' {
			continue
		}
		// A block's first line is "<value> <leaf frame>"; callers follow
		// with the value column blank. Label lines end their first field
		// with a colon.
		fn := fields[0]
		if d, err := time.ParseDuration(fn); err == nil && len(fields) >= 2 && value == 0 {
			value, fn = float64(d), fields[1]
		} else if strings.HasSuffix(fn, ":") {
			continue
		}
		if module != "" {
			continue
		}
		for _, cm := range cpuModules {
			if strings.HasPrefix(fn, cm.prefix) {
				module = cm.module
				break
			}
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("the profile holds no samples")
	}
	fracs := make(map[string]float64, len(cpuModuleNames))
	for _, mod := range cpuModuleNames {
		fracs[mod] = by[mod] / total
	}
	return fracs, nil
}
