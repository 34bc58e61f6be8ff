// Package miniredis is a small Redis-like in-memory data store over RESP,
// reproducing the paper's full-system benchmark (§6.8, Figure 13): its
// sorted-set type has a pluggable ordered-index engine, so the Cuckoo Trie
// and every baseline can replace Redis's default hashtable+skiplist pair.
// The client and server run over loopback TCP, and per-element work during
// scans happens in the server loop — which is exactly the setting where the
// Cuckoo Trie's next-leaf prefetch overlaps with system work (§4.4).
//
// Commands: PING, ZADD key member value, ZSCORE key member,
// ZMSCORE key member [member ...], ZRANGEBYLEX key start count,
// ZREM key member, DBSIZE, FLUSHALL, SAVE, BGSAVE.
//
// With EnablePersistence the server is durable (see internal/persist):
// writes append to a segmented WAL after they apply, SAVE/BGSAVE cut
// snapshots through the engines' ordered cursors — blocking writers only
// for the all-stripe set-list capture over concurrent-safe engines, for
// the whole cursor drain otherwise — and boot-time
// recovery bulk-loads the newest valid snapshot before replaying the WAL
// tail.
//
// The server drains pipelined commands in batches: runs of ZSCOREs against
// the same sorted set collapse into one MultiGet, so an MLP-aware engine
// overlaps the whole pipeline's DRAM misses (§4.4 generalized across keys).
// The keyspace itself — set name → index — is split across power-of-two
// lock stripes (set-name hash routing), and a stripe's mutex is the only
// lock a command on one of its sets takes.
//
// Command execution is an explicit layer: serve parses (dispatch.go),
// dispatch routes, and one executor (executor.go) runs each pipeline
// segment as per-stripe lanes that execute concurrently, with replies
// reassembled in submission order. The two execution modes differ only in
// stripe count: serial (one stripe, Redis's one-at-a-time loop) and
// striped-exec (max(8, GOMAXPROCS) stripes). See ExecMode.
package miniredis

import (
	"errors"
	"fmt"
	"hash/maphash"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/persist"
	"repro/internal/repl"
	"repro/internal/resp"
	"repro/internal/sharded"
)

// Engine names a sorted-set index implementation.
type Engine string

// EngineFactory creates an index for a sorted set.
type EngineFactory func(capacityHint int) index.Index

// ShardedFactory wraps an engine factory so every sorted set is an N-shard
// scatter-gather index (see internal/sharded): pipelined ZSCORE runs that
// collapse into one MultiGet then fan out across cores, one sub-batch per
// shard, composing cross-core parallelism with each shard's batch path.
// Keys route by hash; see ShardedFactoryWithRouter for range routing.
func ShardedFactory(inner EngineFactory, shards int) EngineFactory {
	return ShardedFactoryWithRouter(inner, shards, sharded.NewHashRouter)
}

// ShardedFactoryWithRouter is ShardedFactory with an explicit routing mode:
// under sharded.NewPrefixRouter the shards range-partition each sorted set,
// so a ZRANGEBYLEX whose range lives in one shard bypasses the k-way merge.
func ShardedFactoryWithRouter(inner EngineFactory, shards int, mk sharded.RouterMaker) EngineFactory {
	return func(capacityHint int) index.Index {
		return sharded.NewWithRouter(shards, capacityHint, inner, mk)
	}
}

// keyspace maps set names to their indexes across power-of-two lock
// stripes: a set name hashes to one stripe, and that stripe's mutex is the
// only lock guarding the stripe's map and every set in it. An executor lane
// holds it across set resolution, the engine call and the WAL append, so a
// set's apply order is its log order and a non-concurrent engine is only
// ever touched by one goroutine. Keyspace-wide operations take every stripe
// in ascending index order. The accessors below touch the maps without
// locking: the caller holds the stripe (or all stripes) they read.
type keyspace struct {
	seed    maphash.Seed
	mask    uint64
	stripes []stripe
}

type stripe struct {
	mu   sync.Mutex
	sets map[string]index.Index
	// Pad each stripe to its own cache line (Mutex 8B + map header 8B =
	// 16B on 64-bit): without it adjacent stripes share a line and their
	// lock traffic false-shares, re-serializing at the coherence level
	// what the striping is meant to spread.
	_ [48]byte
}

// newKeyspace builds a keyspace with n stripes rounded up to a power of
// two.
func newKeyspace(n int) *keyspace {
	n = sharded.RoundShards(n)
	ks := &keyspace{
		seed:    maphash.MakeSeed(),
		mask:    uint64(n - 1),
		stripes: make([]stripe, n),
	}
	for i := range ks.stripes {
		ks.stripes[i].sets = make(map[string]index.Index)
	}
	return ks
}

func (ks *keyspace) stripeIdx(name string) int {
	return int(maphash.String(ks.seed, name) & ks.mask)
}

func (ks *keyspace) stripeFor(name string) *stripe {
	return &ks.stripes[ks.stripeIdx(name)]
}

// get returns the named set, creating it with mk(hint) on first use. Only
// writes may create sets; reads go through lookup.
func (ks *keyspace) get(name string, mk EngineFactory, hint int) index.Index {
	st := ks.stripeFor(name)
	ix, ok := st.sets[name]
	if !ok {
		ix = mk(hint)
		st.sets[name] = ix
	}
	return ix
}

// lookup returns the named set without creating it: a read of a missing
// set, or a replicated delete from one, must not conjure an empty index.
func (ks *keyspace) lookup(name string) (index.Index, bool) {
	ix, ok := ks.stripeFor(name).sets[name]
	return ix, ok
}

// put installs a whole set (recovery, a replica's full sync).
func (ks *keyspace) put(name string, ix index.Index) {
	ks.stripeFor(name).sets[name] = ix
}

// lockAll / unlockAll take and release every stripe in ascending index
// order — one global order, so keyspace-wide operations (FLUSHALL, DBSIZE,
// snapshot capture, the replication applier) never deadlock against each
// other or a lane, and always observe a consistent set list.
func (ks *keyspace) lockAll() {
	for i := range ks.stripes {
		ks.stripes[i].mu.Lock()
	}
}

func (ks *keyspace) unlockAll() {
	for i := range ks.stripes {
		ks.stripes[i].mu.Unlock()
	}
}

// totalLen sums the key counts of every set (DBSIZE). The caller holds
// every stripe, so a racing FLUSHALL is observed entirely or not at all.
func (ks *keyspace) totalLen() int {
	total := 0
	for i := range ks.stripes {
		for _, ix := range ks.stripes[i].sets {
			total += ix.Len()
		}
	}
	return total
}

// flush drops every set (FLUSHALL). The caller holds every stripe.
func (ks *keyspace) flush() {
	for i := range ks.stripes {
		ks.stripes[i].sets = make(map[string]index.Index)
	}
}

// snapshotSets collects every set's name, cursor and length, in name order
// so snapshots of the same state are byte-identical. live reports whether
// every set's engine is concurrent-safe, i.e. whether the cursors may
// drain after the caller releases the stripes. The caller holds every
// stripe.
func (ks *keyspace) snapshotSets() (sets []persist.SetSnapshot, live bool) {
	live = true
	for i := range ks.stripes {
		for name, ix := range ks.stripes[i].sets {
			live = live && index.IsConcurrent(ix)
			sets = append(sets, persist.SetSnapshot{
				Set:     name,
				Cursor:  ix.NewCursor(),
				LenHint: ix.Len(),
			})
		}
	}
	sort.Slice(sets, func(i, j int) bool { return sets[i].Set < sets[j].Set })
	return sets, live
}

// newSetHint is the capacity hint of a set that a write creates. A ZADD to a
// new name cannot know how large the set will grow, so its engine starts
// small and grows (AutoResize, for the Cuckoo Trie); sizing it by the
// server-wide hint would let one client exhaust memory by writing one
// member each to many names. The server hint sizes only the loads that
// know their size: Preload and recovery.
const newSetHint = 64

// Server is the mini-Redis server.
type Server struct {
	factory  EngineFactory
	capacity int // hint for Preload- and recovery-created sets
	ks       *keyspace
	ln       net.Listener
	wg       sync.WaitGroup
	mode     ExecMode     // sets the stripe count; see executor.go
	stats    *serverStats // command observability (stats.go): counters, histograms, slowlog

	// maxConns caps simultaneous client connections; 0 = unlimited. Set
	// via SetMaxConns before Listen. Connections over the cap are refused
	// with -ERR and counted in rejected (INFO clients).
	maxConns int
	conns    atomic.Int64
	rejected atomic.Int64

	// Persistence (nil/zero when the server is memory-only).
	wal        *persist.WAL
	dataDir    string
	fsyncPol   persist.FsyncPolicy
	snapEvery  int          // logged writes between automatic BGSAVEs
	rewriteAt  int64        // WAL bytes since last snapshot that trigger one; 0 disables
	sinceSave  atomic.Int64 // logged writes since the last snapshot
	savedBytes atomic.Int64 // WAL AppendedBytes watermark at the last snapshot cut
	saving     atomic.Bool  // one BGSAVE at a time
	saveMu     sync.Mutex   // serializes snapshot cuts; taken after the stripes
	bgWg       sync.WaitGroup
	bgSaveErr  error // last background save failure, under saveMu

	// Replication (see internal/repl and replication.go in this package).
	// repl is the primary-side manager, created with persistence; bulkMu
	// fences bulk loads against full-sync snapshot cuts (Preload holds the
	// read lock, a PSYNC handshake write-locks to wait in-flight loads
	// out). replMu guards the replica-side session.
	repl        *repl.Manager
	fanoutBytes int
	bulkMu      sync.RWMutex
	replMu      sync.Mutex
	replSess    *repl.Replica
	lastMaster  string // resume cache: last primary this server replicated
	lastApplied uint64 // ...and the LSN applied when that session detached
}

// NewServerExec creates a server whose sorted sets use the given engine,
// with an execution mode (see ExecMode in executor.go). The mode only
// picks the keyspace stripe count: ExecSerial gets one stripe, so every
// set command shares one lock; ExecStripedExec gets max(8, GOMAXPROCS). An
// unknown mode falls back to ExecSerial. capacityHint sizes the sets that
// Preload and recovery create; a set created by a write starts small (see
// newSetHint).
func NewServerExec(factory EngineFactory, capacityHint int, mode ExecMode) *Server {
	stripes := 1
	if mode == ExecStripedExec {
		stripes = max(8, runtime.GOMAXPROCS(0))
	} else {
		mode = ExecSerial
	}
	return &Server{
		factory:  factory,
		capacity: capacityHint,
		ks:       newKeyspace(stripes),
		mode:     mode,
		stats:    newServerStats(),
	}
}

// Mode reports the server's execution mode.
func (s *Server) Mode() ExecMode { return s.mode }

// Stripes reports the power-of-two keyspace stripe count.
func (s *Server) Stripes() int { return len(s.ks.stripes) }

// ErrNoPersistence reports a SAVE/BGSAVE against a memory-only server.
var ErrNoPersistence = errors.New("miniredis: persistence not enabled")

// EnablePersistence makes the server durable: it recovers dir's newest
// valid snapshot plus WAL tail into the keyspace (each set bulk-loaded, so
// sharded engines ride the partitioned ingest and untrained sampled
// routers train from the snapshot stream), then opens the WAL for the
// write path. ZADD/ZREM/FLUSHALL append a record after they apply;
// snapshotEvery > 0 triggers a background snapshot every that many logged
// writes. Must be called before Listen. The returned Result reports what
// was recovered.
//
// Preload bypasses the WAL by design (logging a bulk load record-by-record
// would forfeit the partitioned ingest); call Save after preloading to
// make the loaded keys durable.
func (s *Server) EnablePersistence(dir string, policy persist.FsyncPolicy, snapshotEvery int) (*persist.Result, error) {
	return s.EnablePersistenceWithOptions(dir, PersistOptions{Policy: policy, SnapshotEvery: snapshotEvery})
}

// PersistOptions tunes persistence beyond EnablePersistence's defaults —
// exposed mainly so tests can force tiny WAL segments and replication
// fan-out buffers to exercise retention edges.
type PersistOptions struct {
	Policy        persist.FsyncPolicy
	SnapshotEvery int   // logged writes between automatic BGSAVEs; 0 disables
	SegmentBytes  int64 // WAL segment rotation threshold; 0 = persist default
	FanoutBytes   int   // replication fan-out ring bound; 0 = repl default
	// GroupMaxDelay caps the group-commit coalescing window under
	// FsyncGroup/FsyncAsync (the syncer fsyncs earlier once every buffered
	// record's writer has parked); 0 = persist default (2ms), negative =
	// none.
	GroupMaxDelay time.Duration
	// AutoRewriteBytes caps the WAL tail's estimated replay cost: once the
	// record bytes appended since the last snapshot exceed it, a background
	// snapshot (the BGSAVE + RemoveObsolete path) rewrites the log
	// automatically, independent of the SnapshotEvery record cadence.
	// 0 disables.
	AutoRewriteBytes int64
}

// EnablePersistenceWithOptions is EnablePersistence with explicit tuning.
func (s *Server) EnablePersistenceWithOptions(dir string, opts PersistOptions) (*persist.Result, error) {
	if s.ln != nil {
		return nil, errors.New("miniredis: enable persistence before Listen")
	}
	if s.wal != nil {
		return nil, errors.New("miniredis: persistence already enabled")
	}
	res, err := persist.Recover(dir, func(set string, hint int) index.Index {
		if hint <= 0 {
			hint = s.capacity
		}
		return s.factory(hint)
	})
	if err != nil {
		return nil, err
	}
	s.ks.lockAll()
	for name, ix := range res.Sets {
		s.ks.put(name, ix)
	}
	s.ks.unlockAll()
	// FloorLSN: a durable snapshot can be ahead of an unsynced WAL tail
	// after a crash; new LSNs must start past everything recovery used, or
	// the next recovery's LSN filter would skip acknowledged writes.
	wal, err := persist.OpenWAL(dir, persist.WALOptions{
		Policy:        opts.Policy,
		SegmentBytes:  opts.SegmentBytes,
		FloorLSN:      res.LastLSN,
		GroupMaxDelay: opts.GroupMaxDelay,
	})
	if err != nil {
		return nil, err
	}
	s.wal, s.dataDir, s.snapEvery = wal, dir, opts.SnapshotEvery
	s.fsyncPol, s.rewriteAt = opts.Policy, opts.AutoRewriteBytes
	// A durable server can feed read replicas: every WAL append publishes
	// its wire frame into the fan-out ring, in LSN order because the hook
	// runs under the WAL's own mutex.
	s.repl = repl.NewManager(repl.Config{
		Dir:         dir,
		LastLSN:     wal.LSN(),
		FanoutBytes: opts.FanoutBytes,
		CutSnapshot: s.snapshotForSync,
	})
	wal.SetOnAppend(s.repl.Publish)
	return res, nil
}

// Persistent reports whether the server has a data directory attached.
func (s *Server) Persistent() bool { return s.wal != nil }

// logWrite appends one record for an applied write and drives the
// automatic snapshot cadence, returning the record's LSN — the offset a
// later WAIT on the same connection targets. A nil WAL (memory-only
// server) is a no-op returning 0.
func (s *Server) logWrite(op persist.Op, set string, key []byte, val uint64) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	lsn, err := s.wal.Append(op, set, key, val)
	if err != nil {
		return 0, err
	}
	if s.snapEvery > 0 && s.sinceSave.Add(1) >= int64(s.snapEvery) {
		s.sinceSave.Store(0)
		s.BGSave()
	} else if s.rewriteAt > 0 && s.wal.AppendedBytes()-s.savedBytes.Load() >= s.rewriteAt {
		// Automatic log rewrite: the WAL tail past the last snapshot has
		// grown beyond the replay-cost budget, so compact it into a snapshot
		// (BGSave ends with RemoveObsolete, which drops the covered
		// segments). BGSave's one-at-a-time CAS dedupes the burst of writes
		// that all see the budget exceeded before the cut resets the
		// watermark.
		s.BGSave()
	}
	return lsn, nil
}

// Save cuts a snapshot in the foreground (see cutSnapshot): every set is
// serialized through its cursor into snap-<lsn>.snap (temp file + rename,
// so a crash mid-save never damages the previous snapshot), the MANIFEST
// is repointed, and WAL segments the snapshot fully covers are removed.
func (s *Server) Save() error { return s.save(false) }

// save implements Save; held says the caller already holds every stripe
// (a SAVE command under the executor's all-stripe barrier).
func (s *Server) save(held bool) error {
	if s.wal == nil {
		return ErrNoPersistence
	}
	_, _, err := s.cutSnapshot(held)
	return err
}

// cutSnapshot writes one snapshot and returns its LSN and file path. It
// takes every stripe (unless held says the caller has them), then saveMu,
// which serializes cuts. Under the stripes no write is between its apply
// and its log append, so the WAL LSN and the set list are captured at one
// point: every record <= lsn is visible to the cursors, and records > lsn
// replay idempotently on top. When every engine is concurrent-safe the
// stripes are released right after the capture, so writers stall only for
// it; otherwise they stay held through the cursor drain (Redis without
// fork(2) semantics).
func (s *Server) cutSnapshot(held bool) (uint64, string, error) {
	if !held {
		for i := range s.ks.stripes {
			s.ks.stripes[i].mu.Lock()
		}
	}
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	lsn := s.wal.LSN()
	// Reset the auto-rewrite budget at the same point the snapshot LSN is
	// captured: bytes logged at or below lsn are about to be covered.
	s.savedBytes.Store(s.wal.AppendedBytes())
	sets, live := s.ks.snapshotSets()
	release := !held
	if release && live {
		s.ks.unlockAll()
		release = false
	}
	path, err := persist.WriteSnapshot(s.dataDir, lsn, sets)
	if release {
		s.ks.unlockAll()
	}
	if err != nil {
		return 0, "", err
	}
	s.sinceSave.Store(0)
	return lsn, path, persist.RemoveObsolete(s.dataDir, lsn)
}

// snapshotForSync cuts the fresh snapshot a replica's full sync streams
// (the repl.Manager's CutSnapshot hook). Always fresh, never a cached
// file: bulk preloads bypass the WAL, so only a snapshot cut now is
// guaranteed to contain them.
func (s *Server) snapshotForSync() (uint64, string, error) { return s.cutSnapshot(false) }

// BGSave starts Save on a background goroutine, at most one at a time.
// It reports whether a new save was started; a failure is retrievable via
// LastBGSaveError. Close waits for an in-flight background save.
func (s *Server) BGSave() bool {
	if s.wal == nil || !s.saving.CompareAndSwap(false, true) {
		return false
	}
	s.bgWg.Add(1)
	go func() {
		defer s.bgWg.Done()
		defer s.saving.Store(false)
		err := s.save(false)
		s.saveMu.Lock()
		s.bgSaveErr = err
		s.saveMu.Unlock()
	}()
	return true
}

// LastBGSaveError returns the most recent background save's error (nil
// after a success).
func (s *Server) LastBGSaveError() error {
	s.saveMu.Lock()
	defer s.saveMu.Unlock()
	return s.bgSaveErr
}

// Preload bulk-loads keys[i] → vals[i] into the named sorted set through
// the engine's bulk-load path (index.BulkLoad) — the partitioned
// concurrent ingest for sharded engines — creating the set if needed. It
// is meant for warming a server before benchmarking, off the RESP path,
// and holds the set's stripe for the whole load, so commands on that
// stripe wait for it rather than race it.
func (s *Server) Preload(set string, keys [][]byte, vals []uint64) (int, error) {
	if s.isReplica() {
		return 0, errors.New("miniredis: cannot preload a replica (its keyspace mirrors the primary)")
	}
	// The read lock fences replication: a PSYNC handshake write-locks
	// bulkMu before cutting its full-sync snapshot, so a replica that
	// connects mid-load waits for the load to finish instead of streaming a
	// half-loaded keyspace.
	s.bulkMu.RLock()
	defer s.bulkMu.RUnlock()
	i := s.ks.stripeIdx(set)
	s.ks.stripes[i].mu.Lock()
	n, err := index.BulkLoad(s.ks.get(set, s.factory, s.capacity), keys, vals)
	s.ks.stripes[i].mu.Unlock()
	if err == nil && s.repl != nil {
		// Preloaded keys bypass the WAL, so no replica state from before
		// this point can catch up through the log alone: fence partial
		// syncs below the current LSN and kick connected replicas into
		// fresh full syncs.
		s.repl.InvalidatePartialBelow(s.wal.LSN())
	}
	return n, err
}

// Listen starts accepting on addr ("127.0.0.1:0" picks a free port) and
// returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the server, waits for connections and any background save
// to drain, and cleanly closes the WAL. The returned error is the WAL
// close's: that close is the log's final flush+fsync, so discarding it
// would silently un-durable the tail of acknowledged writes (caught by
// ctvet's durabilityerr when this method returned nothing).
func (s *Server) Close() error {
	if s.ln != nil {
		s.ln.Close()
	}
	if s.repl != nil {
		// Kick replica connections first: their serve goroutines are
		// blocked in the feed and must return before wg drains.
		s.repl.Close()
	}
	s.detachReplica(true)
	s.wg.Wait()
	s.bgWg.Wait()
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

// SetMaxConns caps simultaneous client connections (0 = unlimited).
// Connections accepted over the cap get "-ERR max number of clients
// reached" and are closed; INFO clients counts the rejections. Must be
// called before Listen.
func (s *Server) SetMaxConns(n int) { s.maxConns = n }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		if s.maxConns > 0 && s.conns.Load() >= int64(s.maxConns) {
			// Redis's over-maxclients behavior: a best-effort error reply,
			// then hang up. The write error is moot — the connection is
			// being refused either way.
			s.rejected.Add(1)
			conn.Write([]byte("-ERR max number of clients reached\r\n"))
			conn.Close()
			continue
		}
		s.conns.Add(1)
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// set returns the named set, creating it small on first use (see
// newSetHint); the caller holds its stripe.
func (s *Server) set(key string) index.Index {
	return s.ks.get(key, s.factory, newSetHint)
}

// Client is a minimal pipelining RESP client for the benchmarks.
type Client struct {
	conn net.Conn
	r    *resp.Reader
	w    *resp.Writer
	err  error // sticky: set once the connection state is unknown
}

// Dial connects to a mini-Redis server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, r: resp.NewReader(conn), w: resp.NewWriter(conn)}, nil
}

// Close closes the connection.
func (c *Client) Close() { c.conn.Close() }

// Do sends one command and reads its reply.
func (c *Client) Do(args ...[]byte) (interface{}, error) {
	if c.err != nil {
		return nil, c.err
	}
	if err := c.w.WriteCommand(args...); err != nil {
		return nil, c.poison(err)
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.poison(err)
	}
	v, err := c.r.ReadReply()
	if err != nil {
		if resp.FrameSafe(err) {
			return nil, err // bad value, but the stream is still in sync
		}
		return nil, c.poison(err)
	}
	return v, nil
}

// Pipeline sends a batch of commands and reads all replies. If one reply
// carries a malformed value but its frame was fully consumed
// (resp.FrameSafe), the remaining replies are still drained so the
// connection stays in sync for subsequent calls; if the transport or the
// reply framing itself fails mid-pipeline, the client is poisoned — every
// later call fails fast instead of reading a reply that belongs to an
// earlier command.
func (c *Client) Pipeline(cmds [][][]byte) ([]interface{}, error) {
	if c.err != nil {
		return nil, c.err
	}
	for _, cmd := range cmds {
		if err := c.w.WriteCommand(cmd...); err != nil {
			return nil, c.poison(err)
		}
	}
	if err := c.w.Flush(); err != nil {
		return nil, c.poison(err)
	}
	out := make([]interface{}, 0, len(cmds))
	var firstErr error
	for range cmds {
		v, err := c.r.ReadReply()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if resp.FrameSafe(err) {
				continue // drain the replies still owed to this pipeline
			}
			// The reply framing is gone, not just one value: the stream
			// position is unknown, so draining would misread replies.
			c.poison(err)
			break
		}
		if firstErr == nil {
			out = append(out, v)
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// poison records the first connection-desynchronizing error and returns it.
func (c *Client) poison(err error) error {
	if c.err == nil {
		c.err = fmt.Errorf("miniredis: connection desynchronized: %w", err)
	}
	return c.err
}
