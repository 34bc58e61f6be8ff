package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	cuckootrie "repro"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/miniredis"
	"repro/internal/persist"
)

// setName is the sorted set every server workload reads and writes.
var setName = []byte("bench")

// serverSpec is a server workload's configuration and pipeline shape.
type serverSpec struct {
	mode       miniredis.ExecMode
	persistent bool // WAL under -fsync group in a fresh data dir
	depth      int  // commands per pipeline
	writes     int  // ZADDs of new members leading each pipeline; the rest are ZSCOREs
}

var (
	zscoreSpec = serverSpec{mode: miniredis.ExecSerial, depth: readBatch}
	zaddSpec   = serverSpec{mode: miniredis.ExecStripedExec, persistent: true, depth: 16, writes: 8}
)

// persistOptions matches ctredis -fsync group with its default log
// rewrite budget.
var persistOptions = miniredis.PersistOptions{Policy: persist.FsyncGroup, AutoRewriteBytes: 64 << 20}

// engines is the servers' sorted-set engine factory: the Cuckoo Trie, as
// ctredis's default. It remembers each instance, so the benchmark can read
// the loaded set's footprint and run the core rung on the index the
// server serves.
type engines struct {
	mu   sync.Mutex
	made []*cuckootrie.Trie
}

func (e *engines) factory(hint int) index.Index {
	t := newTrie(hint)
	e.mu.Lock()
	e.made = append(e.made, t)
	e.mu.Unlock()
	return t
}

// largest returns the engine instance holding the most keys.
func (e *engines) largest() *cuckootrie.Trie {
	e.mu.Lock()
	defer e.mu.Unlock()
	var best *cuckootrie.Trie
	for _, t := range e.made {
		if best == nil || t.Len() > best.Len() {
			best = t
		}
	}
	return best
}

// liveServer is an in-process server listening on loopback.
type liveServer struct {
	srv    *miniredis.Server
	addr   string
	dir    string // data dir, "" when memory only
	eng    *engines
	closed bool
}

// close stops the server; its error is the WAL's final flush and fsync.
func (ls *liveServer) close() error {
	if ls.closed {
		return nil
	}
	ls.closed = true
	return ls.srv.Close()
}

// startServer builds a server for spec, preloads keys into the set (and
// snapshots them when persistent, so the preload is durable), and starts
// listening. The returned duration is the set-up time.
func startServer(spec serverSpec, keys [][]byte, vals []uint64, dir string) (*liveServer, time.Duration, error) {
	start := time.Now()
	ls := &liveServer{eng: &engines{}, dir: dir}
	ls.srv = miniredis.NewServerExec(ls.eng.factory, len(keys), spec.mode)
	if spec.persistent {
		if _, err := ls.srv.EnablePersistenceWithOptions(dir, persistOptions); err != nil {
			return nil, 0, fmt.Errorf("enable persistence: %w", err)
		}
	}
	fail := func(err error) (*liveServer, time.Duration, error) {
		return nil, 0, errors.Join(err, ls.close())
	}
	added, err := ls.srv.Preload(string(setName), keys, vals)
	if err != nil {
		return fail(fmt.Errorf("preload: %w", err))
	}
	if added != len(keys) {
		return fail(fmt.Errorf("preload added %d of %d keys", added, len(keys)))
	}
	if spec.persistent {
		if err := ls.srv.Save(); err != nil {
			return fail(fmt.Errorf("post-preload snapshot: %w", err))
		}
	}
	addr, err := ls.srv.Listen("127.0.0.1:0")
	if err != nil {
		return fail(fmt.Errorf("listen: %w", err))
	}
	ls.addr = addr
	return ls, time.Since(start), nil
}

// setupServers sets a server up o.setups times and keeps the last one;
// setup_s is the median. Each persistent set-up gets a fresh data dir.
func setupServers(spec serverSpec, keys [][]byte, vals []uint64, o options) (*liveServer, []time.Duration, error) {
	var times []time.Duration
	var ls *liveServer
	for i := 0; i < o.setups; i++ {
		if ls != nil {
			if err := ls.close(); err != nil {
				return nil, nil, err
			}
			os.RemoveAll(ls.dir)
		}
		dir := ""
		if spec.persistent {
			d, err := os.MkdirTemp(o.outDir, "data-")
			if err != nil {
				return nil, nil, err
			}
			dir = d
		}
		runtime.GC()
		s, d, err := startServer(spec, keys, vals, dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		ls = s
		times = append(times, d)
	}
	return ls, times, nil
}

// inserter produces the new members one connection adds: distinct across
// connections (splitmix64 is a bijection) and never a preloaded key.
type inserter struct {
	base    uint64
	g       uint64
	n       uint64
	preload map[uint64]struct{}
}

func newInserter(seed int64, g int, preload map[uint64]struct{}) *inserter {
	return &inserter{base: splitmix64(uint64(seed) ^ 0x1a5e47), g: uint64(g), preload: preload}
}

func (in *inserter) next() uint64 {
	for {
		m := splitmix64(in.base ^ (in.g<<40 | in.n))
		in.n++
		if _, taken := in.preload[m]; !taken {
			return m
		}
	}
}

// insertValue is the score a new member is added with.
func insertValue(member uint64) uint64 { return splitmix64(member ^ 0x5c0e) }

func preloadSet(keys [][]byte) map[uint64]struct{} {
	set := make(map[uint64]struct{}, len(keys))
	for _, k := range keys {
		set[binary.BigEndian.Uint64(k)] = struct{}{}
	}
	return set
}

// loadConn is one load-generating connection's state.
type loadConn struct {
	p     *pipeConn
	c     *counts
	acked []uint64 // members whose ZADD was acknowledged with :1
}

// serverUnits returns one closed-loop worker per connection. Each sends a
// pipeline of spec.writes ZADDs of new members followed by ZSCOREs of
// uniformly chosen preloaded keys, and checks every reply in order.
func serverUnits(spec serverSpec, conns []*loadConn, keys [][]byte, vals []uint64, seed int64, tr *tracer, prefix string) []unitFunc {
	encName, writeName, readName, rootName := prefix+".encode", prefix+".write", prefix+".read+check", prefix+".pipeline"
	preload := map[uint64]struct{}{}
	if spec.writes > 0 {
		preload = preloadSet(keys)
	}
	units := make([]unitFunc, len(conns))
	for g, lc := range conns {
		s := newStream(seed, g)
		ins := newInserter(seed, g, preload)
		sb := tr.buf()
		want := make([]uint64, spec.depth)
		var member [8]byte
		units[g] = func() (int, bool) {
			root := sb.id()
			t0 := time.Now()
			p := lc.p
			for j := 0; j < spec.depth; j++ {
				if j < spec.writes {
					m := ins.next()
					want[j] = m
					binary.BigEndian.PutUint64(member[:], m)
					p.out = appendZAdd(p.out, setName, member[:], insertValue(m))
					continue
				}
				i := s.index(len(keys))
				want[j] = vals[i]
				p.out = appendZScore(p.out, setName, keys[i])
			}
			t1 := time.Now()
			sb.add(encName, sb.id(), root, t0, t1, spec.depth)
			lc.c.attempted += int64(spec.depth)
			if err := p.send(); err != nil {
				lc.c.fail(int64(spec.depth), "write: "+err.Error())
				return 0, true
			}
			t2 := time.Now()
			sb.add(writeName, sb.id(), root, t1, t2, spec.depth)
			ok := 0
			for j := 0; j < spec.depth; j++ {
				r, err := readReply(p.br)
				if err != nil {
					lc.c.fail(int64(spec.depth-j), "read: "+err.Error())
					return ok, true
				}
				if j < spec.writes {
					err = checkAdded(r)
				} else {
					err = checkScore(r, want[j])
				}
				if err != nil {
					lc.c.fail(1, err.Error())
					continue
				}
				ok++
				if j < spec.writes {
					lc.acked = append(lc.acked, want[j])
				}
			}
			t3 := time.Now()
			sb.add(readName, sb.id(), root, t2, t3, spec.depth)
			sb.add(rootName, root, 0, t0, t3, spec.depth)
			return ok, false
		}
	}
	return units
}

// ackedCap presizes each connection's list of acknowledged members, so
// that recording them allocates nothing in a window at up to ~10x the
// write rate measured when the benchmark was written.
const ackedCap = 1 << 18

// serverLoad is spec's load over one connection per CPU.
type serverLoad struct {
	conns []*loadConn
	units []unitFunc
}

// startLoad dials one connection per CPU and builds its closed-loop
// worker; a refused connection counts as a failed operation. Spans are
// named after prefix.
func startLoad(ls *liveServer, spec serverSpec, keys [][]byte, vals []uint64, seed int64, tr *tracer, prefix string, rep *report) *serverLoad {
	ld := &serverLoad{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		p, err := dialPipe(ls.addr)
		if err != nil {
			rep.attempted++
			rep.fail(1, "connect: %v", err)
			continue
		}
		ld.conns = append(ld.conns, &loadConn{p: p, c: &counts{}, acked: make([]uint64, 0, ackedCap)})
	}
	ld.units = serverUnits(spec, ld.conns, keys, vals, seed, tr, prefix)
	return ld
}

// stop closes the connections, merges their counts into rep, and returns
// each connection's acknowledged members.
func (ld *serverLoad) stop(rep *report) [][]uint64 {
	var acked [][]uint64
	for _, lc := range ld.conns {
		lc.p.Close()
		rep.merge(lc.c)
		acked = append(acked, lc.acked)
	}
	return acked
}

// runZAddGroup runs redis-zadd-group: set-up, the measured window, the
// traced ladder when asked, and the recovery and durability check.
func runZAddGroup(o options, m machine, out io.Writer) (*report, error) {
	spec := zaddSpec
	keys := dataset.Generate(dataset.Rand8, o.setKeys, o.seed)
	vals := seededValues(o.seed, len(keys))
	ls, setups, err := setupServers(spec, keys, vals, o)
	if err != nil {
		return nil, err
	}
	defer func() {
		ls.close()
		os.RemoveAll(ls.dir)
	}()
	set := ls.eng.largest()
	fmt.Fprintf(out, "residency: %d-member set after preload (load factor %.3f), %s\n",
		set.Len(), set.Stats().LoadFactor, m.residency(set.MemoryOverheadBytes()))
	fmt.Fprintf(out, "persistence: -fsync group, data dir on %s\n", m.fsType)

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	rep := &report{}
	ld := startLoad(ls, spec, keys, vals, o.seed, tr, "e2e", rep)
	var before map[string]string
	var goLayer []metric
	if o.trace {
		goLayer = goLayerWindow(ld.units, tr, o)
		if before, err = info(ls.addr, "persistence"); err != nil {
			return nil, err
		}
	}
	samples, _, _ := closedLoop(ld.units, o.warmup(), o.window(), true)
	acked := ld.stop(rep)
	e2e, latency := windowMetrics(samples, o.window())
	// The footprint is read after the window. Right after the preload the
	// table is ~62% full, where an insertion can fail for want of room, and
	// on one or two seeds in ten AutoResize has already doubled it; on the
	// others the window's first inserts double it. Read after the window,
	// every seed's set has the doubled table.
	members := set.Len()
	e2e = append(e2e,
		metric{name: "setup_s", value: medianDuration(setups), unit: "s", samples: len(setups)},
		metric{name: "mem_bytes_per_key", value: float64(set.MemoryOverheadBytes()) / float64(members), unit: "B/key", samples: members,
			note: fmt.Sprintf("after the window, load factor %.3f", set.Stats().LoadFactor)})

	var l *ladder
	if o.trace {
		rep.info = append(e2e, latency...)
		l = &ladder{o: o, out: out, tr: tr, rep: rep, keys: keys, vals: vals,
			readDepth: spec.depth - spec.writes, goLayer: goLayer}
		// The workload's own server supplies the server-layer figures
		// before it is closed for the durability check.
		if err := l.serverFigures(ls, spec, true, before, acked); err != nil {
			return nil, err
		}
		l.coreRung(set, nil)
	} else {
		rep.e2e, rep.info = e2e, latency
	}
	recTimes, err := checkDurability(ls, spec, len(keys), acked, o.setups, rep, out)
	if err != nil {
		return nil, err
	}
	rep.info = append(rep.info, metric{name: "recover_s", value: medianDuration(recTimes), unit: "s", samples: len(recTimes),
		note: "median time for a fresh server to recover the run's data dir"})
	if l == nil {
		return rep, nil
	}
	if err := l.upperRungs(&spec); err != nil {
		return nil, err
	}
	return rep, l.finish()
}

// checkDurability closes the server, recovers its data dir in fresh
// servers (timed; the median is recover_s), and verifies on the last one
// that every acknowledged ZADD is present with its value and that DBSIZE
// covers the preload plus every acknowledged insert. A lost write counts
// as a failed operation.
func checkDurability(ls *liveServer, spec serverSpec, preloaded int, acked [][]uint64, tries int, rep *report, out io.Writer) ([]time.Duration, error) {
	if err := ls.close(); err != nil {
		rep.fail(1, "close: %v", err)
	}
	var times []time.Duration
	for i := 0; i < tries; i++ {
		runtime.GC()
		srv := miniredis.NewServerExec(trieFactory, preloaded, spec.mode)
		start := time.Now()
		_, err := srv.EnablePersistenceWithOptions(ls.dir, persistOptions)
		times = append(times, time.Since(start))
		if err != nil {
			return nil, errors.Join(fmt.Errorf("recover: %w", err), srv.Close())
		}
		if i < tries-1 {
			if err := srv.Close(); err != nil {
				return nil, fmt.Errorf("close recovered server: %w", err)
			}
			continue
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, errors.Join(fmt.Errorf("listen: %w", err), srv.Close())
		}
		verr := verifyAcked(addr, preloaded, acked, rep, out)
		if err := errors.Join(verr, srv.Close()); err != nil {
			return nil, err
		}
	}
	return times, nil
}

func verifyAcked(addr string, preloaded int, acked [][]uint64, rep *report, out io.Writer) error {
	p, err := dialPipe(addr)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	defer p.Close()
	var all []uint64
	for _, a := range acked {
		all = append(all, a...)
	}
	var member [8]byte
	lost := 0
	for off := 0; off < len(all); off += readBatch {
		batch := all[off:min(off+readBatch, len(all))]
		for _, m := range batch {
			binary.BigEndian.PutUint64(member[:], m)
			p.out = appendZScore(p.out, setName, member[:])
		}
		if err := p.send(); err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		for _, m := range batch {
			r, err := readReply(p.br)
			if err != nil {
				return fmt.Errorf("verify: %w", err)
			}
			if err := checkScore(r, insertValue(m)); err != nil {
				lost++
				rep.fail(1, "acknowledged ZADD lost after recovery: %v", err)
			}
		}
	}
	p.out = append(p.out, "*1\r\n$6\r\nDBSIZE\r\n"...)
	if err := p.send(); err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	r, err := readReply(p.br)
	if err != nil {
		return fmt.Errorf("verify DBSIZE: %w", err)
	}
	if want := uint64(preloaded + len(all)); r.kind != ':' || r.num < want {
		rep.fail(1, "DBSIZE after recovery %c%s, want at least %d", r.kind, r.text, want)
	}
	fmt.Fprintf(out, "durability: %d acknowledged ZADDs checked after recovery, %d lost\n", len(all), lost)
	return nil
}

// info reads one INFO section as key → value.
func info(addr, section string) (map[string]string, error) {
	c, err := miniredis.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	v, err := c.Do([]byte("INFO"), []byte(section))
	if err != nil {
		return nil, fmt.Errorf("INFO %s: %w", section, err)
	}
	b, ok := v.([]byte)
	if !ok {
		return nil, fmt.Errorf("INFO %s: unexpected reply %v", section, v)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(b), "\r\n") {
		if k, val, ok := strings.Cut(line, ":"); ok && !strings.HasPrefix(k, "#") {
			out[k] = val
		}
	}
	return out, nil
}

// infoFloat reads a numeric INFO field; a missing field reads as 0.
func infoFloat(kv map[string]string, key string) float64 {
	f, _ := strconv.ParseFloat(kv[key], 64)
	return f
}

// usecPerCall extracts usec_per_call from a cmdstat_<family> line.
func usecPerCall(kv map[string]string, family string) (float64, int) {
	var usec float64
	var calls int
	for _, field := range strings.Split(kv["cmdstat_"+family], ",") {
		k, v, _ := strings.Cut(field, "=")
		switch k {
		case "usec_per_call":
			usec, _ = strconv.ParseFloat(v, 64)
		case "calls":
			calls, _ = strconv.Atoi(v)
		}
	}
	return usec, calls
}
