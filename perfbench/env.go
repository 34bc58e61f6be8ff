package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// machine is what the environment banner records.
type machine struct {
	nproc      int
	gomaxprocs int
	goVersion  string
	l3Bytes    int64 // 0 when unknown
	l3Text     string
	fsType     string // filesystem of the data dirs
	commit     string
}

func probeMachine(dataDir string) machine {
	m := machine{
		nproc:      runtime.NumCPU(),
		gomaxprocs: runtime.GOMAXPROCS(0),
		goVersion:  runtime.Version(),
		fsType:     filesystemOf(dataDir),
		commit:     gitCommit("."),
	}
	m.l3Bytes, m.l3Text = readL3()
	return m
}

// readL3 reads cpu0's L3 size from sysfs ("307200K").
func readL3() (int64, string) {
	b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index3/size")
	if err != nil {
		return 0, "unknown"
	}
	return parseCacheSize(strings.TrimSpace(string(b)))
}

func parseCacheSize(s string) (int64, string) {
	mult := int64(1)
	num := s
	switch {
	case strings.HasSuffix(s, "K"):
		mult, num = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, num = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(num, 10, 64)
	if err != nil || v <= 0 {
		return 0, "unknown"
	}
	return v * mult, s
}

// gitCommit reads HEAD from the checkout's .git directory without running
// git; a checkout without one reports "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown (" + ref + ")"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown (" + ref + ")"
}

// execModes names each workload's server configuration for the banner.
var execModes = []string{
	"trie-read-dram: library only (no server, no WAL)",
	"redis-zadd-group: -exec striped-exec, WAL -fsync group",
	"traced ladder: read server -exec serial, memory only; write server -exec striped-exec, WAL -fsync group",
}

func (m machine) banner(out io.Writer, o options) {
	fmt.Fprintln(out, "== perfbench environment ==")
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g warmup=%v trace=%v\n", o.workload, o.seed, o.seconds, o.warmup(), o.trace)
	fmt.Fprintf(out, "nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", m.nproc, m.gomaxprocs, m.goVersion, m.commit)
	fmt.Fprintf(out, "L3=%s (%d bytes, cpu0 index3)\n", m.l3Text, m.l3Bytes)
	fmt.Fprintf(out, "data dir=%s filesystem=%s\n", o.outDir, m.fsType)
	for _, e := range execModes {
		fmt.Fprintln(out, "exec:", e)
	}
	fmt.Fprintln(out, "latencies are those of the host running the benchmark (loopback TCP, page-cached files), not of a storage device or a network")
}

// residency reports an index's footprint against L3; a footprint below
// 1.5x L3 is flagged, because then lookups do not miss to DRAM the way the
// paper's experiments do.
func (m machine) residency(indexBytes int64) string {
	if m.l3Bytes == 0 {
		return fmt.Sprintf("index %.1f MiB, L3 unknown", float64(indexBytes)/(1<<20))
	}
	ratio := float64(indexBytes) / float64(m.l3Bytes)
	flag := "DRAM-resident"
	if ratio < 1.5 {
		flag = "not DRAM-resident"
	}
	return fmt.Sprintf("index %.1f MiB = %.2fx L3: %s", float64(indexBytes)/(1<<20), ratio, flag)
}
