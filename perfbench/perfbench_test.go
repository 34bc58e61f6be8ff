package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// contract is the part of BENCHMARK.json the runs must match.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 7, seconds: 0.3, trace: trace,
		trieKeys: 50_000, setKeys: 4096, setups: 2, outDir: t.TempDir()}
}

// TestTinyRunsEmitEveryMetric runs every workload of BENCHMARK.json at a
// tiny scale, untraced and traced, and checks that the result line carries
// exactly the contract's metrics with their units, and that each is also
// printed with its unit and sample count.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	c := readContract(t)
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %q is missing from BENCHMARK.json", w.name)
		}
	}
	for _, w := range c.Workloads {
		for _, trace := range []bool{false, true} {
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			var out bytes.Buffer
			if err := run(tinyOptions(t, w.Name, trace), &out); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res jsonResult
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: result %+v", w.Name, trace, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %q", w.Name, trace, m.Name, got, ok, m.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
				if !printedWithUnit(lines, m.Name, m.Unit) {
					t.Errorf("%s trace=%v: %s not printed with unit %s and a sample count", w.Name, trace, m.Name, m.Unit)
				}
			}
		}
	}
}

func printedWithUnit(lines []string, name, unit string) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == name && f[2] == unit && strings.HasPrefix(f[3], "n=") {
			return true
		}
	}
	return false
}

func parse(t *testing.T, wire string) reply {
	t.Helper()
	r, err := readReply(bufio.NewReader(strings.NewReader(wire)))
	if err != nil {
		t.Fatalf("readReply(%q): %v", wire, err)
	}
	return r
}

// TestCheckerRejectsCorruptedValue feeds the reply checker good replies
// and corrupted ones.
func TestCheckerRejectsCorruptedValue(t *testing.T) {
	if err := checkScore(parse(t, "$5\r\n12345\r\n"), 12345); err != nil {
		t.Errorf("correct score rejected: %v", err)
	}
	for _, wire := range []string{
		"$5\r\n12346\r\n", // one digit off
		"$5\r\n1234x\r\n", // not a number
		"$-1\r\n",         // member missing
		"-ERR oops\r\n",   // error reply
		":12345\r\n",      // wrong type
	} {
		if err := checkScore(parse(t, wire), 12345); err == nil {
			t.Errorf("checkScore accepted %q for 12345", wire)
		}
	}
	if err := checkAdded(parse(t, ":1\r\n")); err != nil {
		t.Errorf("ZADD :1 rejected: %v", err)
	}
	for _, wire := range []string{":0\r\n", ":2\r\n", ":-1\r\n", "-ERR persistence: disk full\r\n", "+OK\r\n"} {
		if err := checkAdded(parse(t, wire)); err == nil {
			t.Errorf("checkAdded accepted %q", wire)
		}
	}
	for _, wire := range []string{"$5\r\n12345\r\r", "$99\r\n1\r\n", "*1\r\n"} {
		if _, err := readReply(bufio.NewReader(strings.NewReader(wire))); err == nil {
			t.Errorf("readReply framed malformed %q", wire)
		}
	}
}

// keyStream is the first ops of a workload's load goroutine g: the keys
// it reads and the members it adds.
func keyStream(seed int64, g, n int) (reads [][]byte, adds []uint64) {
	keys := dataset.Generate(dataset.Rand8, 1000, seed)
	s := newStream(seed, g)
	ins := newInserter(seed, g, preloadSet(keys))
	for i := 0; i < n; i++ {
		reads = append(reads, keys[s.index(len(keys))])
		adds = append(adds, ins.next())
	}
	return reads, adds
}

// TestSeedReproducesKeyStream checks that a seed fixes the key stream and
// that another seed changes it.
func TestSeedReproducesKeyStream(t *testing.T) {
	r1, a1 := keyStream(3, 0, 200)
	r2, a2 := keyStream(3, 0, 200)
	if !slices.EqualFunc(r1, r2, bytes.Equal) || !slices.Equal(a1, a2) {
		t.Error("the same seed produced different key streams")
	}
	r3, a3 := keyStream(4, 0, 200)
	if slices.EqualFunc(r1, r3, bytes.Equal) || slices.Equal(a1, a3) {
		t.Error("a different seed produced the same key stream")
	}
	r4, _ := keyStream(3, 1, 200)
	if slices.EqualFunc(r1, r4, bytes.Equal) {
		t.Error("two load goroutines share a key stream")
	}
	if !slices.Equal(seededValues(3, 100), seededValues(3, 100)) || slices.Equal(seededValues(3, 100), seededValues(4, 100)) {
		t.Error("seeded values do not follow the seed")
	}
}
