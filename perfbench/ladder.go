package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	cuckootrie "repro"
	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/resp"
	"repro/internal/sharded"
)

// layerMetrics lists the per-layer metrics a traced run reports, in
// report order. Each names the layer whose public functions it times.
var layerMetrics = []struct{ name, unit string }{
	{"core.get_ns", "ns"},
	{"core.multiget_ns_per_key", "ns/key"},
	{"core.mlp_ratio", "ratio"},
	{"core.multiset_ns_per_key", "ns/key"},
	{"core.load_factor", "ratio"},
	{"core.nodes_per_key", "nodes/key"},
	{"core.scan_ns_per_key", "ns/key"},
	{"sharded.multiget_ns_per_key", "ns/key"},
	{"resp.decode_ns_per_cmd", "ns/cmd"},
	{"resp.encode_ns_per_reply", "ns/reply"},
	{"resp.allocs_per_cmd", "allocs/cmd"},
	{"miniredis.ping_pipeline_us", "us"},
	{"miniredis.zscore_usec_per_call", "us"},
	{"miniredis.zadd_usec_per_call", "us"},
	{"persist.fsync_p50_us", "us"},
	{"persist.commit_wait_p50_us", "us"},
	{"persist.group_batch_p50", "records"},
	{"persist.fsyncs_per_kop", "fsyncs/kop"},
	{"persist.append_ns", "ns"},
	{"persist.replay_kops", "kops/s"},
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.gc_cycles_per_s", "1/s"},
}

// ladder replays a workload's op stream through the layers one at a time —
// core, sharded, resp, the server over loopback, and the WAL — timing the
// calls into each layer's public functions with spans. Rungs above core
// use the first o.setKeys keys, so for trie-read-dram they run on a
// cache-resident subset while its core rung runs on the DRAM-sized trie.
// Every traced run must report every per-layer metric, so a layer the
// workload itself does not drive (the WAL, say, for a read-only workload)
// is measured with the server configuration of the workload that does,
// over this workload's keys; that figure repeats the other workload's.
type ladder struct {
	o         options
	out       io.Writer
	tr        *tracer
	rep       *report
	keys      [][]byte
	vals      []uint64
	readDepth int      // the workload's run of reads: MultiGet batch, ZSCOREs per pipeline
	goLayer   []metric // the Go runtime over the workload's untraced go window
	direct    map[string]metric
}

// ladderKeys are the keys the rungs above core are built from.
func (l *ladder) ladderKeys() ([][]byte, []uint64) {
	n := min(len(l.keys), l.o.setKeys)
	return l.keys[:n], l.vals[:n]
}

// count scales a rung's repetitions with the run length, so short test
// runs stay short.
func (l *ladder) count(base int) int {
	return max(1, base/64, int(float64(base)*min(1, l.o.seconds/10)))
}

// rungWindow is how long a ladder server replay runs.
func (l *ladder) rungWindow() time.Duration {
	return min(2*time.Second, max(100*time.Millisecond, l.o.window()/5))
}

func (l *ladder) set(name string, value float64, samples int) {
	if l.direct == nil {
		l.direct = map[string]metric{}
	}
	l.direct[name] = metric{name: name, value: value, samples: samples}
}

// check counts one checked operation of a rung.
func (l *ladder) check(ok bool, format string, args ...any) {
	l.rep.attempted++
	if !ok {
		l.rep.fail(1, format, args...)
	}
}

// fillBatch fills ks with uniformly chosen keys from a ladder stream.
func fillBatch(s *stream, keys [][]byte, idx []int, ks [][]byte) {
	for j := range ks {
		idx[j] = s.index(len(keys))
		ks[j] = keys[idx[j]]
	}
}

// coreRung times Get and MultiGet on alternating batches of the same
// stream (a batch is never reread, so a MultiGet does not find its keys
// cached by the Gets before it), Scan from random starts, and reads the
// table's structure. loadSpans holds the set-up's MultiSet spans when the
// set-up was a MultiSet bulk load; otherwise a fresh trie is loaded.
func (l *ladder) coreRung(t *cuckootrie.Trie, loadSpans *spanBuf) {
	sb := l.tr.buf()
	s := newStream(l.o.seed, 1<<20)
	d := l.readDepth
	idx, ks := make([]int, d), make([][]byte, d)
	v, f := make([]uint64, d), make([]bool, d)
	n := l.count(4096)
	for b := 0; b < n; b++ {
		fillBatch(s, l.keys, idx, ks)
		start := time.Now()
		name := "core.MultiGet"
		if b%2 == 0 {
			name = "core.Get"
			for j, k := range ks {
				v[j], f[j] = t.Get(k)
			}
		} else {
			t.MultiGet(ks, v, f)
		}
		sb.add(name, sb.id(), 0, start, time.Now(), d)
		for j, i := range idx {
			l.check(f[j] && v[j] == l.vals[i], "%s: key %x: got %d (found %v), want %d", name, l.keys[i], v[j], f[j], l.vals[i])
		}
	}
	const scanLen = 100
	for i := 0; i < l.count(2000); i++ {
		start := time.Now()
		visited := t.Scan(l.keys[s.index(len(l.keys))], scanLen, func([]byte, uint64) bool { return true })
		sb.add("core.Scan", sb.id(), 0, start, time.Now(), visited)
		l.check(visited > 0, "core.Scan from a stored key visited nothing")
	}
	if loadSpans == nil {
		lk, lv := l.ladderKeys()
		if err := loadTrie(newTrie(len(lk)), lk, lv, sb); err != nil {
			l.check(false, "core.MultiSet: %v", err)
		}
	}
	st := t.Stats()
	l.set("core.load_factor", st.LoadFactor, st.Keys)
	l.set("core.nodes_per_key", st.NodesPerKey, st.Keys)
}

// upperRungs runs the rungs above core. own is the workload's server spec,
// nil for the library-only workload; rungs its own server already covered
// (see serverFigures) are skipped.
func (l *ladder) upperRungs(own *serverSpec) error {
	l.shardedRung()
	shape := zscoreSpec
	if own != nil {
		shape = *own
	}
	l.respRung(shape)
	if own == nil {
		if err := l.serverRung(zscoreSpec, true); err != nil {
			return err
		}
	}
	if own == nil || !own.persistent {
		if err := l.serverRung(zaddSpec, false); err != nil {
			return err
		}
	}
	return l.persistRung()
}

// shardedRung loads the ladder keys into a 2-shard index and times
// MultiGet on the workload's read batches.
func (l *ladder) shardedRung() {
	lk, lv := l.ladderKeys()
	x := sharded.New(2, len(lk), trieFactory)
	if _, err := index.BulkLoad(x, lk, lv); err != nil {
		l.check(false, "sharded bulk load: %v", err)
		return
	}
	sb := l.tr.buf()
	s := newStream(l.o.seed, 2<<20)
	d := l.readDepth
	idx, ks := make([]int, d), make([][]byte, d)
	v, f := make([]uint64, d), make([]bool, d)
	for b := 0; b < l.count(2048); b++ {
		fillBatch(s, lk, idx, ks)
		start := time.Now()
		x.MultiGet(ks, v, f)
		sb.add("sharded.MultiGet", sb.id(), 0, start, time.Now(), d)
		for j, i := range idx {
			l.check(f[j] && v[j] == lv[i], "sharded.MultiGet: key %x: got %d, want %d", lk[i], v[j], lv[i])
		}
	}
}

// respRung encodes the workload's pipelines as the client sends them,
// decodes them with resp.Reader.ReadCommand as the server does, and
// encodes the replies with resp.Writer. Allocations are counted on a
// separate untraced pass.
func (l *ladder) respRung(shape serverSpec) {
	lk, lv := l.ladderKeys()
	const pipelines = 256
	s := newStream(l.o.seed, 3<<20)
	ins := newInserter(l.o.seed, 3<<20, nil)
	var wire []byte
	var member [8]byte
	replies := make([]uint64, 0, pipelines*shape.depth) // score, or 0 for a ZADD's :1
	for p := 0; p < pipelines; p++ {
		for j := 0; j < shape.depth; j++ {
			if j < shape.writes {
				m := ins.next()
				binary.BigEndian.PutUint64(member[:], m)
				wire = appendZAdd(wire, setName, member[:], insertValue(m))
				replies = append(replies, 0)
				continue
			}
			i := s.index(len(lk))
			wire = appendZScore(wire, setName, lk[i])
			replies = append(replies, lv[i])
		}
	}
	pass := func(sb *spanBuf) {
		r := resp.NewReader(bytes.NewReader(wire))
		for p := 0; p < pipelines; p++ {
			start := time.Now()
			for j := 0; j < shape.depth; j++ {
				cmd, err := r.ReadCommand()
				if err != nil || (len(cmd) != 3 && len(cmd) != 4) {
					l.check(false, "resp.ReadCommand: %d args, %v", len(cmd), err)
				}
			}
			sb.add("resp.ReadCommand", sb.id(), 0, start, time.Now(), shape.depth)
		}
		w := resp.NewWriter(io.Discard)
		var num [20]byte
		for p := 0; p < pipelines; p++ {
			start := time.Now()
			for j := 0; j < shape.depth; j++ {
				if j < shape.writes {
					w.WriteInt(1)
				} else {
					w.WriteBulk(strconv.AppendUint(num[:0], replies[p*shape.depth+j], 10))
				}
			}
			if err := w.Flush(); err != nil {
				l.check(false, "resp.Writer flush: %v", err)
			}
			sb.add("resp.Write", sb.id(), 0, start, time.Now(), shape.depth)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass(nil)
	runtime.ReadMemStats(&after)
	cmds := pipelines * shape.depth
	l.set("resp.allocs_per_cmd", float64(after.Mallocs-before.Mallocs)/float64(cmds), cmds)
	sb := l.tr.buf()
	for i := 0; i < l.count(16); i++ {
		pass(sb)
	}
}

// serverRung starts a server of spec over the ladder keys, replays spec's
// pipelines for a short window, and reads the server-layer figures from
// it. own says whether this server stands in for the workload's own (the
// library-only workload has none).
func (l *ladder) serverRung(spec serverSpec, own bool) error {
	lk, lv := l.ladderKeys()
	dir := ""
	if spec.persistent {
		d, err := os.MkdirTemp(l.o.outDir, "ladder-")
		if err != nil {
			return err
		}
		dir = d
		defer os.RemoveAll(dir)
	}
	ls, _, err := startServer(spec, lk, lv, dir)
	if err != nil {
		return err
	}
	defer ls.close()
	var before map[string]string
	if spec.persistent {
		if before, err = info(ls.addr, "persistence"); err != nil {
			return err
		}
	}
	ld := startLoad(ls, spec, lk, lv, l.o.seed, l.tr, "ladder", l.rep)
	closedLoop(ld.units, 0, l.rungWindow(), false)
	if err := l.serverFigures(ls, spec, own, before, ld.stop(l.rep)); err != nil {
		return err
	}
	return ls.close()
}

// serverFigures reads the server-layer metrics from a server that has run
// spec's pipelines. When the server is the workload's own, or stands in
// for it (own), it also times a PING pipeline of spec's depth and reports
// ZSCORE's usec_per_call from INFO commandstats. A persistent server adds
// ZADD's usec_per_call and the WAL histograms from INFO persistence;
// before is INFO persistence from before the load, acked the acknowledged
// ZADDs since.
func (l *ladder) serverFigures(ls *liveServer, spec serverSpec, own bool, before map[string]string, acked [][]uint64) error {
	stats, err := info(ls.addr, "commandstats")
	if err != nil {
		return err
	}
	if own {
		usec, calls := usecPerCall(stats, "zscore")
		l.set("miniredis.zscore_usec_per_call", usec, calls)
		if err := l.pingRung(ls.addr, spec.depth); err != nil {
			return err
		}
	}
	if !spec.persistent {
		return nil
	}
	usec, calls := usecPerCall(stats, "zadd")
	l.set("miniredis.zadd_usec_per_call", usec, calls)
	after, err := info(ls.addr, "persistence")
	if err != nil {
		return err
	}
	writes := 0
	for _, a := range acked {
		writes += len(a)
	}
	fsyncs := infoFloat(after, "aof_fsync_count") - infoFloat(before, "aof_fsync_count")
	n := int(infoFloat(after, "aof_fsync_count"))
	l.set("persist.fsync_p50_us", infoFloat(after, "aof_fsync_p50_us"), n)
	l.set("persist.commit_wait_p50_us", infoFloat(after, "aof_commit_wait_p50_us"), int(infoFloat(after, "aof_commit_wait_count")))
	l.set("persist.group_batch_p50", infoFloat(after, "aof_group_batch_p50"), int(infoFloat(after, "aof_group_batch_count")))
	if writes > 0 {
		l.set("persist.fsyncs_per_kop", fsyncs/(float64(writes)/1e3), writes)
	}
	return nil
}

// pingRung times PING pipelines of the workload's depth on one
// connection: transport plus dispatch, with no engine work.
func (l *ladder) pingRung(addr string, depth int) error {
	p, err := dialPipe(addr)
	if err != nil {
		return err
	}
	defer p.Close()
	sb := l.tr.buf()
	for i := 0; i < l.count(2000); i++ {
		start := time.Now()
		for j := 0; j < depth; j++ {
			p.out = appendPing(p.out)
		}
		if err := p.send(); err != nil {
			return err
		}
		for j := 0; j < depth; j++ {
			r, err := readReply(p.br)
			if err != nil {
				return err
			}
			l.check(checkPong(r) == nil, "PING: %v", checkPong(r))
		}
		sb.add("server.PING-pipeline", sb.id(), 0, start, time.Now(), depth)
	}
	return nil
}

// persistRung appends the ladder keys to a WAL under -fsync group with
// direct WAL.Append calls, closes it, and times its replay by Recover.
func (l *ladder) persistRung() error {
	lk, lv := l.ladderKeys()
	dir, err := os.MkdirTemp(l.o.outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	wal, err := persist.OpenWAL(dir, persist.WALOptions{Policy: persist.FsyncGroup})
	if err != nil {
		return err
	}
	sb := l.tr.buf()
	n := min(len(lk), l.count(1<<16))
	const group = 64
	for off := 0; off < n; off += group {
		end := min(off+group, n)
		start := time.Now()
		for i := off; i < end; i++ {
			if _, err := wal.Append(persist.OpSet, string(setName), lk[i], lv[i]); err != nil {
				return fmt.Errorf("WAL append: %w", err)
			}
		}
		sb.add("persist.Append", sb.id(), 0, start, time.Now(), end-off)
	}
	if err := wal.Close(); err != nil {
		return fmt.Errorf("WAL close: %w", err)
	}
	runtime.GC()
	start := time.Now()
	res, err := persist.Recover(dir, func(_ string, hint int) index.Index { return trieFactory(max(hint, n)) })
	d := time.Since(start)
	if err != nil {
		return fmt.Errorf("WAL replay: %w", err)
	}
	l.check(res.Replayed == n && res.Keys() == n, "WAL replay: %d records, %d keys, want %d", res.Replayed, res.Keys(), n)
	l.set("persist.replay_kops", float64(res.Replayed)/d.Seconds()/1e3, res.Replayed)
	return nil
}

// finish writes the spans out, prints their table, and assembles the
// per-layer metrics in report order.
func (l *ladder) finish() error {
	agg := aggregate(l.tr.all())
	fromSpans := func(name, span string, scale float64, perUnit bool) {
		v, n := medianDur(agg, span)
		if perUnit {
			v, n = medianPerUnit(agg, span)
		}
		if n > 0 {
			l.set(name, v*scale, n)
		}
	}
	fromSpans("core.get_ns", "core.Get", 1, true)
	fromSpans("core.multiget_ns_per_key", "core.MultiGet", 1, true)
	fromSpans("core.multiset_ns_per_key", "core.MultiSet", 1, true)
	fromSpans("core.scan_ns_per_key", "core.Scan", 1, true)
	fromSpans("sharded.multiget_ns_per_key", "sharded.MultiGet", 1, true)
	fromSpans("resp.decode_ns_per_cmd", "resp.ReadCommand", 1, true)
	fromSpans("resp.encode_ns_per_reply", "resp.Write", 1, true)
	fromSpans("miniredis.ping_pipeline_us", "server.PING-pipeline", 1e-3, false)
	fromSpans("persist.append_ns", "persist.Append", 1, true)
	if g, m := l.direct["core.get_ns"], l.direct["core.multiget_ns_per_key"]; m.value > 0 {
		l.set("core.mlp_ratio", g.value/m.value, m.samples)
	}
	for _, m := range l.goLayer {
		l.direct[m.name] = m
	}

	printSpanTable(l.out, agg)
	path := filepath.Join(l.o.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", l.o.workload, l.o.seed))
	if err := l.tr.write(path); err != nil {
		return err
	}
	fmt.Fprintf(l.out, "trace: %d spans written to %s (%d dropped)\n", len(l.tr.all()), path, l.tr.dropped())

	for _, lm := range layerMetrics {
		m, ok := l.direct[lm.name]
		if !ok {
			return fmt.Errorf("traced run produced no %s", lm.name)
		}
		m.unit = lm.unit
		l.rep.layers = append(l.rep.layers, m)
	}
	return nil
}
