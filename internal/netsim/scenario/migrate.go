package scenario

// Deterministic failure coverage for live resharding (the
// cluster.Rebalance protocol), exercised over the fault-injected
// network. The topology is a star: the root is the cluster client and
// migration driver, children 1..Shards are the old fleet, and the last
// child is the newcomer the reshard brings in. Placement uses the real
// versioned ring; the handoff uses the real bundle codec and
// chunked-transfer algebra (core.NewBundleTransfer /
// core.SummaryTransfer / core.SummaryAssembly); folds use the real
// merge/stand-in algebra. What the simulation replaces is only the
// transport — transfer frames become netsim messages subject to
// scripted crashes, cuts, and partitions — so the invariants pinned
// here ("an interrupted transfer resumes without re-applying a byte",
// "bounds stay honest at every step of a migration", "a stale-epoch
// writer is refused, never double-counted") are properties of the
// protocol, not of healthy TCP.
//
// The driver mirrors cluster.Rebalance's state machine: drain (ingest
// is buffered for the duration, the sim analog of the client holding
// its feeds), then per (old owner, new owner) pair, in sorted order,
// one bundle of every stream the pair moves: pull → push → commit,
// under the source's name as the bundle key. Then a fence broadcast to
// the whole fleet, and only then the epoch flip that makes the new
// ring authoritative. A source that stays unreachable past ColdAfter
// turns its whole bundle cold — the summaries are left behind and
// every later fold answers those streams with fully tainted stand-ins,
// which is exactly the never-lying degradation the probes score.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/streamsum/swat/internal/cluster"
	"github.com/streamsum/swat/internal/core"
	"github.com/streamsum/swat/internal/netsim"
	"github.com/streamsum/swat/internal/sim"
)

// MigrateConfig describes one live-resharding scenario.
type MigrateConfig struct {
	// Shards is the size of the old fleet; the run always adds one
	// newcomer on top. 0 means 3.
	Shards int
	// Streams names the logical streams; nil means 6 streams s0..s5.
	Streams []string
	// Seed drives placement, faults, and data. Same seed, same config,
	// same script — same run.
	Seed int64
	// Tree geometry; zero means 16/4/2 (MinLevel 2 keeps fresh probes
	// on healthy shards exact, so every non-zero bound is attributable
	// to faults or migration taint).
	WindowSize   int
	Coefficients int
	MinLevel     int
	// ValueLo/ValueHi bound the synthetic values and declare the
	// widening range. Both zero means [0, 100].
	ValueLo, ValueHi float64
	// DataInterval is the gap between arrival rows; 0 means 1.
	DataInterval float64
	// DataCount is the number of rows; 0 means 80.
	DataCount int
	// MigrateAt is when the reshard starts; 0 means halfway through
	// the data stream.
	MigrateAt float64
	// ChunkBytes is the transfer chunk size; small values force
	// multi-chunk bundles. 0 means 48.
	ChunkBytes int
	// RetryEvery is the driver's retransmit interval; 0 means 0.5.
	RetryEvery float64
	// ColdAfter is how long one bundle may go without progress (a
	// reply that advances it) before the driver abandons it cold; 0
	// means 8.
	ColdAfter float64
	// FenceBudget is how long the fence broadcast retries before the
	// flip proceeds with unfenced nodes listed; 0 means 8.
	FenceBudget float64
	// Probe schedule: a gather after row ProbeStart (0 means
	// WindowSize+1) and every ProbeEvery rows after it (0 means 4), each
	// answering a bounded point query at ProbeAge (0 = the newest value).
	ProbeStart int
	ProbeEvery int
	ProbeAge   int
	// StaleWriteAt, when non-zero, injects one data row at that time
	// carrying the OLD epoch to the OLD owner of the first moved
	// stream — the straggler the fence must refuse.
	StaleWriteAt float64
	// Faults is the ambient link behavior; Script layers timed faults.
	Faults netsim.LinkFaults
	Script Script
	// SettleTime extends the run past the last row; 0 means 30.
	SettleTime float64
}

func (c MigrateConfig) withDefaults() MigrateConfig {
	if c.Shards == 0 {
		c.Shards = 3
	}
	if c.Streams == nil {
		for i := 0; i < 6; i++ {
			c.Streams = append(c.Streams, fmt.Sprintf("s%d", i))
		}
	}
	if c.WindowSize == 0 {
		c.WindowSize = 16
	}
	if c.Coefficients == 0 {
		c.Coefficients = 4
	}
	if c.MinLevel == 0 {
		c.MinLevel = 2
	}
	if c.ValueLo == 0 && c.ValueHi == 0 {
		c.ValueHi = 100
	}
	if c.DataInterval == 0 {
		c.DataInterval = 1
	}
	if c.DataCount == 0 {
		c.DataCount = 80
	}
	if c.MigrateAt == 0 {
		c.MigrateAt = (float64(c.DataCount)/2 + 0.25) * c.DataInterval
	}
	if c.ChunkBytes == 0 {
		c.ChunkBytes = 48
	}
	if c.RetryEvery == 0 {
		c.RetryEvery = 0.5
	}
	if c.ColdAfter == 0 {
		c.ColdAfter = 8
	}
	if c.FenceBudget == 0 {
		c.FenceBudget = 8
	}
	if c.ProbeStart == 0 {
		c.ProbeStart = c.WindowSize + 1
	}
	if c.ProbeEvery == 0 {
		c.ProbeEvery = 4
	}
	if c.SettleTime == 0 {
		c.SettleTime = 30
	}
	return c
}

// MigMove records one stream's handoff. Bytes is the stream's own
// summary length; Chunks counts the pull chunks of the bundle that
// carried it (shared by every move of that bundle).
type MigMove struct {
	Stream   string
	From, To string
	Bytes    int64
	Chunks   int
	Cold     bool
}

// AppliedChunk is one pull chunk the driver actually applied (duplicate
// deliveries from retransmissions are idempotently dropped and do not
// appear). Offsets per bundle must be strictly increasing and gap-free
// — the no-re-sent-bytes ledger. Bundle names the node pair,
// "from>to".
type AppliedChunk struct {
	Bundle string
	Offset int64
	N      int
}

// MigProbe is one gather's outcome against ground truth, tagged with
// the migration phase it landed in.
type MigProbe struct {
	T     float64
	Phase string // "pre", "mid", "post"
	Value float64
	Bound float64
	Exact float64
	// Missing lists streams answered by fully tainted stand-ins;
	// Advanced lists streams whose summary lagged the shipped count and
	// was fast-forwarded with tainted midpoints.
	Missing  []string
	Advanced []string
	Answered int
	Err      string
}

// MigrateResult is a migration scenario's canonical record.
type MigrateResult struct {
	Log        string
	Counters   string
	Probes     []MigProbe
	Violations []string
	// FromEpoch/ToEpoch are the ring epochs either side of the flip.
	FromEpoch, ToEpoch uint64
	// Flipped reports whether the cutover completed within the run.
	Flipped bool
	// Moves are the handoffs, sorted by stream.
	Moves []MigMove
	// Unfenced lists shards the fence broadcast could not reach before
	// the flip, by name.
	Unfenced []string
	// Applied is the pull ledger across all bundles, in execution
	// order.
	Applied []AppliedChunk
	// Refusals counts stale-epoch refusals per shard name.
	Refusals map[string]int
	// FinalState maps each stream to the canonical summary its
	// final-ring owner holds at the end of the run (nil when the owner
	// holds nothing, e.g. a cold move onto an empty newcomer).
	FinalState map[string][]byte
	// OldPlacement/NewPlacement map stream → shard name under each ring.
	OldPlacement, NewPlacement map[string]string
}

// ProbesText renders probe outcomes canonically; byte-identical across
// same-seed runs.
func (r *MigrateResult) ProbesText() string {
	var b strings.Builder
	for _, p := range r.Probes {
		if p.Err != "" {
			fmt.Fprintf(&b, "t=%.9g phase=%s answered=%d err=%q\n", p.T, p.Phase, p.Answered, p.Err)
			continue
		}
		fmt.Fprintf(&b, "t=%.9g phase=%s v=%.9g bound=%.9g exact=%.9g answered=%d missing=%v advanced=%v\n",
			p.T, p.Phase, p.Value, p.Bound, p.Exact, p.Answered, p.Missing, p.Advanced)
	}
	return b.String()
}

// Message payloads. Epochs ride every stream-addressed frame exactly as
// on the wire: 0 means unversioned, behind-the-shard refuses, ahead
// adopts forward.
type mdataMsg struct {
	Stream string
	V      float64
	Epoch  uint64
}

type msumReq struct {
	ID    int
	Epoch uint64
}

type msumRes struct {
	ID    int
	Shard netsim.NodeID
	Stale bool
	Names []string
	Sums  [][]byte
}

// mreadReq names the stream set whose bundle it reads, as migRead
// does; mwriteReq and mcommitReq carry the bundle key instead.
type mreadReq struct {
	ID      int
	Streams []string
	Offset  int64
	Total   int64
	CRC     uint32
	Chunk   int
}

type mreadRes struct {
	ID     int
	Offset int64
	Total  int64
	CRC    uint32
	Data   []byte
	Err    string
}

type mwriteReq struct {
	ID     int
	Key    string
	Offset int64
	Total  int64
	CRC    uint32
	Data   []byte
}

type mwriteRes struct {
	ID        int
	Have      int64
	Committed bool
	Err       string
}

type mcommitReq struct {
	ID    int
	Key   string
	Total int64
	CRC   uint32
	Epoch uint64
}

type mcommitRes struct {
	ID        int
	Committed bool
	Err       string
}

type mfenceMsg struct{ Epoch uint64 }

type mfenceAck struct {
	Shard netsim.NodeID
	Epoch uint64
}

// migShard is one shard's volatile state: stream trees, the fence
// epoch, bundle snapshots by stream set (source side), and bundle
// assemblies plus committed marks by bundle key (destination side; a
// committed assembly is kept for its identity). A crash loses all of
// it.
type migShard struct {
	trees     map[string]*core.Tree
	epoch     uint64
	exports   map[string]*core.SummaryTransfer
	asms      map[string]*core.SummaryAssembly
	committed map[string]bool
}

func newMigShard() *migShard {
	return &migShard{
		trees:     make(map[string]*core.Tree),
		exports:   make(map[string]*core.SummaryTransfer),
		asms:      make(map[string]*core.SummaryAssembly),
		committed: make(map[string]bool),
	}
}

// driver phases.
const (
	migIdle = iota
	migPull
	migPush
	migCommit
	migFence
	migDone
)

type migHarness struct {
	cfg   MigrateConfig
	sim   *sim.Simulator
	net   *netsim.Network
	opts  core.Options
	mopts core.MergeOptions

	oldRing, newRing *cluster.Ring
	ring             *cluster.Ring // authoritative placement, flips at cutover
	epoch            uint64
	byName           map[string]netsim.NodeID
	shards           map[netsim.NodeID]*migShard

	seq     uint64
	sent    map[string]int64
	history map[string][]float64
	rows    [][]float64

	migrating bool
	buffered  [][]float64 // rows deferred while the driver holds ingest

	// driver state: bundles in execution order, the current one
	bundles      []migBundle
	phase        int
	bIdx         int
	asm          *core.SummaryAssembly
	xfer         *core.SummaryTransfer
	waitID       int
	nextID       int
	coldDeadline float64
	pushHave     int64
	fencePending map[netsim.NodeID]bool
	fenceDeadln  float64

	gathers  map[int]*gatherMig
	gatherID int
	res      *MigrateResult
}

// migBundle is one node pair's move set.
type migBundle struct {
	name     string // "from>to", the ledger's key
	from, to string
	moves    []int // into MigrateResult.Moves, stream order
	streams  []string
	bytes    int64 // the bundle's length once pulled
}

type gatherMig struct {
	responses map[netsim.NodeID]msumRes
	sent      map[string]int64
	phase     string
}

// migShardName names a shard on the ring; the newcomer is the last ID.
func migShardName(id netsim.NodeID) string { return fmt.Sprintf("shard%d", id) }

// RunMigrate replays one live-resharding scenario. Invariants checked
// along the way land in Result.Violations: every answered probe must
// satisfy |Value − Exact| ≤ Bound, pull chunks apply gap-free and
// monotonically per bundle (a byte is never applied twice), non-cold
// bundles must transfer exactly their length, and the network
// accounting must balance.
func RunMigrate(cfg MigrateConfig) (*MigrateResult, error) {
	cfg = cfg.withDefaults()
	top := netsim.NewTopology()
	var oldIDs []netsim.NodeID
	for i := 0; i < cfg.Shards; i++ {
		id, err := top.AddChild(top.Root())
		if err != nil {
			return nil, err
		}
		oldIDs = append(oldIDs, id)
	}
	newcomer, err := top.AddChild(top.Root())
	if err != nil {
		return nil, err
	}
	if err := cfg.Script.Validate(top); err != nil {
		return nil, err
	}
	oldNames := make([]string, len(oldIDs))
	byName := make(map[string]netsim.NodeID, len(oldIDs)+1)
	for i, id := range oldIDs {
		oldNames[i] = migShardName(id)
		byName[oldNames[i]] = id
	}
	byName[migShardName(newcomer)] = newcomer
	oldRing, err := cluster.NewRing(cfg.Seed, 16, oldNames)
	if err != nil {
		return nil, err
	}
	newRing, err := oldRing.WithNode(migShardName(newcomer))
	if err != nil {
		return nil, err
	}
	s := sim.New()
	net, err := netsim.NewNetwork(s, top, cfg.Faults, cfg.Seed)
	if err != nil {
		return nil, err
	}
	h := &migHarness{
		cfg:     cfg,
		sim:     s,
		net:     net,
		opts:    core.Options{WindowSize: cfg.WindowSize, Coefficients: cfg.Coefficients, MinLevel: cfg.MinLevel},
		mopts:   core.MergeOptions{ValueLo: cfg.ValueLo, ValueHi: cfg.ValueHi},
		oldRing: oldRing,
		newRing: newRing,
		ring:    oldRing,
		epoch:   oldRing.Epoch(),
		byName:  byName,
		shards:  make(map[netsim.NodeID]*migShard, len(oldIDs)+1),
		sent:    make(map[string]int64, len(cfg.Streams)),
		history: make(map[string][]float64, len(cfg.Streams)),
		gathers: make(map[int]*gatherMig),
		res: &MigrateResult{
			FromEpoch:    oldRing.Epoch(),
			ToEpoch:      newRing.Epoch(),
			Refusals:     make(map[string]int),
			FinalState:   make(map[string][]byte),
			OldPlacement: make(map[string]string, len(cfg.Streams)),
			NewPlacement: make(map[string]string, len(cfg.Streams)),
		},
	}
	if _, err := core.New(h.opts); err != nil {
		return nil, err
	}
	for _, st := range cfg.Streams {
		h.res.OldPlacement[st] = oldRing.Owner(st)
		h.res.NewPlacement[st] = newRing.Owner(st)
	}
	allIDs := append(append([]netsim.NodeID(nil), oldIDs...), newcomer)
	for _, id := range allIDs {
		h.shards[id] = newMigShard()
	}
	for _, id := range allIDs {
		id := id
		sub := func(kind string, f func(netsim.NodeID, netsim.Message)) error {
			return net.Subscribe(id, kind, func(m netsim.Message) { f(id, m) })
		}
		for kind, f := range map[string]func(netsim.NodeID, netsim.Message){
			"mdata":   h.onMigData,
			"msum":    h.onMigSumReq,
			"mread":   h.onMigRead,
			"mwrite":  h.onMigWrite,
			"mcommit": h.onMigCommit,
			"mfence":  h.onMigFence,
		} {
			if err := sub(kind, f); err != nil {
				return nil, err
			}
		}
	}
	root := top.Root()
	for kind, f := range map[string]func(netsim.Message){
		"msumres":    h.onMigSumRes,
		"mreadres":   h.onMigReadRes,
		"mwriteres":  h.onMigWriteRes,
		"mcommitres": h.onMigCommitRes,
		"mfenceres":  h.onMigFenceAck,
	} {
		if err := net.Subscribe(root, kind, f); err != nil {
			return nil, err
		}
	}
	// A crash loses the shard's volatile state: trees, fence epoch,
	// bundle snapshots, and half-assembled bundles.
	net.OnCrash = func(id netsim.NodeID) {
		if h.shards[id] != nil {
			h.shards[id] = newMigShard()
		}
	}
	return h.run()
}

// shardIDs returns every shard's NodeID ascending (map iteration is
// not deterministic; schedules must be).
func (h *migHarness) shardIDs() []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(h.shards))
	for id := range h.shards {
		out = append(out, id)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// violate records one invariant breach.
func (h *migHarness) violate(format string, args ...any) {
	h.res.Violations = append(h.res.Violations, fmt.Sprintf(format, args...))
}

func (h *migHarness) send(to netsim.NodeID, kind string, payload any) {
	h.seq++
	h.net.Send(h.net.Topology().Root(), to, kind, h.seq, payload)
}

func (h *migHarness) reply(from netsim.NodeID, kind string, payload any) {
	h.seq++
	h.net.Send(from, h.net.Topology().Root(), kind, h.seq, payload)
}

// ---- shard handlers ----

// shardAdmit applies the wire's epoch rule at a shard: 0 passes,
// ahead adopts forward, behind refuses.
func (h *migHarness) shardAdmit(id netsim.NodeID, epoch uint64) bool {
	sh := h.shards[id]
	if epoch == 0 || epoch == sh.epoch {
		return true
	}
	if epoch > sh.epoch {
		sh.epoch = epoch
		return true
	}
	h.res.Refusals[migShardName(id)]++
	return false
}

func (h *migHarness) onMigData(id netsim.NodeID, m netsim.Message) {
	d, ok := m.Payload.(mdataMsg)
	if !ok {
		h.violate("shard %d: bad mdata payload %T", id, m.Payload)
		return
	}
	if !h.shardAdmit(id, d.Epoch) {
		return
	}
	sh := h.shards[id]
	tr, ok := sh.trees[d.Stream]
	if !ok {
		var err error
		if tr, err = core.New(h.opts); err != nil {
			h.violate("%v", err)
			return
		}
		sh.trees[d.Stream] = tr
	}
	tr.Update(d.V)
}

func (h *migHarness) onMigSumReq(id netsim.NodeID, m netsim.Message) {
	req, ok := m.Payload.(msumReq)
	if !ok {
		h.violate("shard %d: bad msum payload %T", id, m.Payload)
		return
	}
	res := msumRes{ID: req.ID, Shard: id}
	if !h.shardAdmit(id, req.Epoch) {
		res.Stale = true
		h.reply(id, "msumres", res)
		return
	}
	sh := h.shards[id]
	names := make([]string, 0, len(sh.trees))
	for name := range sh.trees {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		res.Names = append(res.Names, name)
		res.Sums = append(res.Sums, sh.trees[name].AppendSummary(nil))
	}
	h.reply(id, "msumres", res)
}

// onMigRead serves one chunk of the bundle of the requested set. The
// snapshot is cached per set so a resumed pull reads the same bytes;
// an identity mismatch (the snapshot was lost to a crash and re-taken
// over different state) restarts the transfer at offset 0 with the new
// identity — the driver may resume monotonically only within one
// identity. A set naming a stream the shard lacks is refused whole.
func (h *migHarness) onMigRead(id netsim.NodeID, m netsim.Message) {
	req, ok := m.Payload.(mreadReq)
	if !ok {
		h.violate("shard %d: bad mread payload %T", id, m.Payload)
		return
	}
	sh := h.shards[id]
	res := mreadRes{ID: req.ID}
	set := strings.Join(req.Streams, "\x00")
	xfer := sh.exports[set]
	if xfer == nil {
		trees := make([]*core.Tree, len(req.Streams))
		for i, st := range req.Streams {
			if trees[i] = sh.trees[st]; trees[i] == nil {
				res.Err = fmt.Sprintf("shard %d holds no stream %q", id, st)
				h.reply(id, "mreadres", res)
				return
			}
		}
		var err error
		if xfer, err = core.NewBundleTransfer(req.Streams, trees); err != nil {
			res.Err = err.Error()
			h.reply(id, "mreadres", res)
			return
		}
		sh.exports[set] = xfer
	}
	res.Total, res.CRC = xfer.Len(), xfer.CRC()
	off := req.Offset
	if off > 0 && (req.Total != xfer.Len() || req.CRC != xfer.CRC()) {
		off = 0 // identity changed under the driver: restart
	}
	data, err := xfer.Chunk(off, req.Chunk)
	if err != nil {
		res.Err = err.Error()
		h.reply(id, "mreadres", res)
		return
	}
	res.Offset, res.Data = off, data
	h.reply(id, "mreadres", res)
}

func (h *migHarness) onMigWrite(id netsim.NodeID, m netsim.Message) {
	req, ok := m.Payload.(mwriteReq)
	if !ok {
		h.violate("shard %d: bad mwrite payload %T", id, m.Payload)
		return
	}
	sh := h.shards[id]
	res := mwriteRes{ID: req.ID}
	asm := sh.asms[req.Key]
	if sh.committed[req.Key] && asm.Matches(req.Total, req.CRC) {
		res.Committed, res.Have = true, asm.Have()
		h.reply(id, "mwriteres", res)
		return
	}
	if asm == nil || sh.committed[req.Key] || !asm.Matches(req.Total, req.CRC) {
		var err error
		if asm, err = core.NewSummaryAssembly(req.Total, req.CRC); err != nil {
			res.Err = err.Error()
			h.reply(id, "mwriteres", res)
			return
		}
		sh.asms[req.Key] = asm
		delete(sh.committed, req.Key)
	}
	if len(req.Data) > 0 && req.Offset <= asm.Have() {
		if err := asm.Append(req.Offset, req.Data); err != nil {
			res.Err = err.Error()
			h.reply(id, "mwriteres", res)
			return
		}
	}
	// A gap write replies the resume token unchanged — the driver
	// continues from Have.
	res.Have = asm.Have()
	h.reply(id, "mwriteres", res)
}

// onMigCommit verifies the keyed bundle, decodes every entry, and only
// then installs them all, as the wire server does.
func (h *migHarness) onMigCommit(id netsim.NodeID, m netsim.Message) {
	req, ok := m.Payload.(mcommitReq)
	if !ok {
		h.violate("shard %d: bad mcommit payload %T", id, m.Payload)
		return
	}
	sh := h.shards[id]
	res := mcommitRes{ID: req.ID}
	asm := sh.asms[req.Key]
	if sh.committed[req.Key] && asm.Matches(req.Total, req.CRC) {
		res.Committed = true
		h.reply(id, "mcommitres", res)
		return
	}
	if req.Epoch != 0 && sh.epoch > req.Epoch {
		res.Err = fmt.Sprintf("shard %d fenced past commit epoch %d", id, req.Epoch)
		h.reply(id, "mcommitres", res)
		return
	}
	if asm == nil || sh.committed[req.Key] || !asm.Matches(req.Total, req.CRC) || !asm.Complete() {
		res.Err = fmt.Sprintf("shard %d has no complete bundle under %q", id, req.Key)
		h.reply(id, "mcommitres", res)
		return
	}
	fail := func(err error) {
		res.Err = err.Error()
		h.reply(id, "mcommitres", res)
	}
	xfer, err := asm.Transfer()
	if err != nil {
		fail(err)
		return
	}
	entries, err := xfer.Entries()
	if err != nil {
		fail(err)
		return
	}
	trees := make([]*core.Tree, len(entries))
	for i, e := range entries {
		sum, err := core.DecodeSummary(e.Summary)
		if err != nil {
			fail(err)
			return
		}
		if trees[i], err = core.FromSummary(sum); err != nil {
			fail(err)
			return
		}
	}
	for i, e := range entries {
		sh.trees[e.Name] = trees[i]
	}
	sh.committed[req.Key] = true
	res.Committed = true
	h.reply(id, "mcommitres", res)
}

func (h *migHarness) onMigFence(id netsim.NodeID, m netsim.Message) {
	f, ok := m.Payload.(mfenceMsg)
	if !ok {
		h.violate("shard %d: bad mfence payload %T", id, m.Payload)
		return
	}
	sh := h.shards[id]
	if f.Epoch > sh.epoch {
		sh.epoch = f.Epoch
	}
	h.reply(id, "mfenceres", mfenceAck{Shard: id, Epoch: sh.epoch})
}

// ---- driver (root) ----

// moves lists the streams whose owner changes, sorted.
func (h *migHarness) moves() []string {
	var out []string
	for _, st := range h.cfg.Streams {
		if h.oldRing.Owner(st) != h.newRing.Owner(st) {
			out = append(out, st)
		}
	}
	sort.Strings(out)
	return out
}

func (h *migHarness) currentBundle() *migBundle {
	if h.bIdx >= len(h.bundles) {
		return nil
	}
	return &h.bundles[h.bIdx]
}

// startMigration drains ingest, groups the moves by node pair, and
// begins the first pull.
func (h *migHarness) startMigration() {
	h.migrating = true
	at := make(map[string]int)
	for _, st := range h.moves() {
		mv := MigMove{Stream: st, From: h.oldRing.Owner(st), To: h.newRing.Owner(st)}
		name := mv.From + ">" + mv.To
		j, ok := at[name]
		if !ok {
			j = len(h.bundles)
			at[name] = j
			h.bundles = append(h.bundles, migBundle{name: name, from: mv.From, to: mv.To})
		}
		h.bundles[j].moves = append(h.bundles[j].moves, len(h.res.Moves))
		h.bundles[j].streams = append(h.bundles[j].streams, st)
		h.res.Moves = append(h.res.Moves, mv)
	}
	sort.Slice(h.bundles, func(a, b int) bool {
		x, y := h.bundles[a], h.bundles[b]
		return x.from < y.from || (x.from == y.from && x.to < y.to)
	})
	h.bIdx = -1
	h.advanceBundle()
}

// advanceBundle steps to the next bundle, or to the fence when done.
func (h *migHarness) advanceBundle() {
	h.bIdx++
	h.asm, h.xfer, h.pushHave = nil, nil, 0
	if b := h.currentBundle(); b != nil {
		h.phase = migPull
		h.progressed()
		h.sendPull(b)
		return
	}
	h.startFence()
}

// progressed re-arms the cold deadline: the current bundle advanced.
func (h *migHarness) progressed() {
	h.coldDeadline = h.sim.Now() + h.cfg.ColdAfter
}

// goCold abandons the current bundle and leaves its streams behind;
// the sent registry still counts them, so folds answer them with
// tainted stand-ins rather than silence.
func (h *migHarness) goCold() {
	for _, i := range h.currentBundle().moves {
		h.res.Moves[i].Cold = true
	}
	h.advanceBundle()
}

// request issues one driver request and arms its retransmit timer. The
// timer re-issues the same logical request (fresh ID) for as long as
// the driver is still waiting in the same phase; past coldDeadline it
// gives up the bundle instead.
func (h *migHarness) request(to netsim.NodeID, kind string, build func(id int) any) {
	h.nextID++
	id := h.nextID
	h.waitID = id
	phase, bIdx := h.phase, h.bIdx
	h.send(to, kind, build(id))
	if err := h.sim.At(h.sim.Now()+h.cfg.RetryEvery, func() {
		if h.waitID != id || h.phase != phase || h.bIdx != bIdx {
			return // answered or moved on
		}
		if h.phase != migFence && h.sim.Now() >= h.coldDeadline {
			h.goCold()
			return
		}
		h.request(to, kind, build)
	}); err != nil {
		h.violate("%v", err)
	}
}

func (h *migHarness) sendPull(b *migBundle) {
	var total int64
	var crc uint32
	var off int64
	if h.asm != nil {
		total, crc, off = h.asm.Total(), h.asm.CRC(), h.asm.Have()
	}
	h.request(h.byName[b.from], "mread", func(id int) any {
		return mreadReq{ID: id, Streams: b.streams, Offset: off, Total: total, CRC: crc, Chunk: h.cfg.ChunkBytes}
	})
}

func (h *migHarness) onMigReadRes(m netsim.Message) {
	res, ok := m.Payload.(mreadRes)
	if !ok {
		h.violate("driver: bad mreadres payload %T", m.Payload)
		return
	}
	b := h.currentBundle()
	if h.phase != migPull || b == nil || res.ID != h.waitID {
		return // stale response from a retransmitted request
	}
	h.waitID = 0
	if res.Err != "" {
		// The source answered but cannot serve (e.g. restarted empty).
		// Keep retrying until the cold deadline: a heal may restore it.
		h.retryLater(func() { h.sendPull(b) })
		return
	}
	if h.asm == nil || !h.asm.Matches(res.Total, res.CRC) {
		if res.Offset != 0 {
			h.violate("bundle %s: source switched identity mid-transfer at offset %d", b.name, res.Offset)
			h.goCold()
			return
		}
		asm, err := core.NewSummaryAssembly(res.Total, res.CRC)
		if err != nil {
			h.violate("bundle %s: %v", b.name, err)
			h.goCold()
			return
		}
		h.asm = asm
	}
	if res.Offset != h.asm.Have() {
		// The ledger's core property: every applied chunk continues at
		// exactly the resume token. Anything else means bytes were
		// re-sent or skipped.
		h.violate("bundle %s: chunk at offset %d, resume token %d", b.name, res.Offset, h.asm.Have())
		h.goCold()
		return
	}
	if err := h.asm.Append(res.Offset, res.Data); err != nil {
		h.violate("bundle %s: %v", b.name, err)
		h.goCold()
		return
	}
	h.progressed()
	h.res.Applied = append(h.res.Applied, AppliedChunk{Bundle: b.name, Offset: res.Offset, N: len(res.Data)})
	for _, i := range b.moves {
		h.res.Moves[i].Chunks++
	}
	if !h.asm.Complete() {
		h.sendPull(b)
		return
	}
	if err := h.pulled(b); err != nil {
		h.violate("bundle %s: %v", b.name, err)
		h.goCold()
		return
	}
	h.phase = migPush
	data, err := h.xfer.Chunk(0, h.cfg.ChunkBytes)
	if err != nil {
		h.violate("bundle %s: %v", b.name, err)
		h.goCold()
		return
	}
	h.sendPush(b, data, 0) // a fresh push starts at offset 0
}

// pulled relays the complete assembly as the push's transfer and
// records each stream's own summary length from the bundle's index.
func (h *migHarness) pulled(b *migBundle) error {
	xfer, err := h.asm.Transfer()
	if err != nil {
		return err
	}
	entries, err := xfer.Entries()
	if err != nil {
		return err
	}
	if len(entries) != len(b.moves) {
		return fmt.Errorf("%d entries for %d streams", len(entries), len(b.moves))
	}
	for k, e := range entries {
		mv := &h.res.Moves[b.moves[k]]
		if e.Name != mv.Stream {
			return fmt.Errorf("entry %q where %q belongs", e.Name, mv.Stream)
		}
		mv.Bytes = int64(len(e.Summary))
	}
	h.xfer, b.bytes = xfer, xfer.Len()
	return nil
}

// retryLater re-arms the current step after RetryEvery, or goes cold.
func (h *migHarness) retryLater(step func()) {
	phase, bIdx := h.phase, h.bIdx
	if err := h.sim.At(h.sim.Now()+h.cfg.RetryEvery, func() {
		if h.phase != phase || h.bIdx != bIdx || h.waitID != 0 {
			return
		}
		if h.sim.Now() >= h.coldDeadline {
			h.goCold()
			return
		}
		step()
	}); err != nil {
		h.violate("%v", err)
	}
}

// sendPush writes data at off under the bundle key, the source's name;
// empty data probes the destination's resume token.
func (h *migHarness) sendPush(b *migBundle, data []byte, off int64) {
	h.request(h.byName[b.to], "mwrite", func(id int) any {
		return mwriteReq{ID: id, Key: b.from, Offset: off, Total: h.xfer.Len(), CRC: h.xfer.CRC(), Data: data}
	})
}

func (h *migHarness) onMigWriteRes(m netsim.Message) {
	res, ok := m.Payload.(mwriteRes)
	if !ok {
		h.violate("driver: bad mwriteres payload %T", m.Payload)
		return
	}
	b := h.currentBundle()
	if h.phase != migPush || b == nil || res.ID != h.waitID {
		return
	}
	h.waitID = 0
	if res.Err != "" {
		// Resuming after a failure: probe the resume token first.
		h.retryLater(func() { h.sendPush(b, nil, 0) })
		return
	}
	if res.Have > h.pushHave || res.Committed {
		h.progressed()
	}
	h.pushHave = res.Have
	if res.Committed || res.Have >= h.xfer.Len() {
		h.phase = migCommit
		h.sendCommit(b)
		return
	}
	data, err := h.xfer.Chunk(res.Have, h.cfg.ChunkBytes)
	if err != nil {
		h.violate("bundle %s: %v", b.name, err)
		h.goCold()
		return
	}
	h.sendPush(b, data, res.Have)
}

func (h *migHarness) sendCommit(b *migBundle) {
	h.request(h.byName[b.to], "mcommit", func(id int) any {
		return mcommitReq{ID: id, Key: b.from, Total: h.xfer.Len(), CRC: h.xfer.CRC(), Epoch: h.newRing.Epoch()}
	})
}

func (h *migHarness) onMigCommitRes(m netsim.Message) {
	res, ok := m.Payload.(mcommitRes)
	if !ok {
		h.violate("driver: bad mcommitres payload %T", m.Payload)
		return
	}
	b := h.currentBundle()
	if h.phase != migCommit || b == nil || res.ID != h.waitID {
		return
	}
	h.waitID = 0
	if res.Err != "" || !res.Committed {
		// The bundle may have been lost to a destination crash:
		// restart the push from the destination's resume token.
		h.phase = migPush
		h.retryLater(func() { h.sendPush(b, nil, 0) })
		return
	}
	h.advanceBundle()
}

// startFence broadcasts the new epoch to the whole fleet (old and new
// members) and retries stragglers until FenceBudget expires; then the
// flip proceeds, listing whoever never acked.
func (h *migHarness) startFence() {
	h.phase = migFence
	h.fencePending = make(map[netsim.NodeID]bool, len(h.shards))
	for _, id := range h.shardIDs() {
		h.fencePending[id] = true
	}
	h.fenceDeadln = h.sim.Now() + h.cfg.FenceBudget
	h.fenceRound()
}

func (h *migHarness) fenceRound() {
	if h.phase != migFence {
		return
	}
	if len(h.fencePending) == 0 || h.sim.Now() >= h.fenceDeadln {
		h.flip()
		return
	}
	ids := make([]netsim.NodeID, 0, len(h.fencePending))
	for id := range h.fencePending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		h.send(id, "mfence", mfenceMsg{Epoch: h.newRing.Epoch()})
	}
	if err := h.sim.At(h.sim.Now()+h.cfg.RetryEvery, func() { h.fenceRound() }); err != nil {
		h.violate("%v", err)
	}
}

func (h *migHarness) onMigFenceAck(m netsim.Message) {
	ack, ok := m.Payload.(mfenceAck)
	if !ok {
		h.violate("driver: bad mfenceres payload %T", m.Payload)
		return
	}
	if h.phase != migFence {
		return
	}
	if ack.Epoch >= h.newRing.Epoch() {
		delete(h.fencePending, ack.Shard)
	}
	if len(h.fencePending) == 0 {
		h.flip()
	}
}

// flip makes the new ring authoritative and releases buffered ingest
// under the new epoch.
func (h *migHarness) flip() {
	if h.phase == migDone {
		return
	}
	h.phase = migDone
	ids := make([]netsim.NodeID, 0, len(h.fencePending))
	for id := range h.fencePending {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	for _, id := range ids {
		h.res.Unfenced = append(h.res.Unfenced, migShardName(id))
	}
	h.ring = h.newRing
	h.epoch = h.newRing.Epoch()
	h.res.Flipped = true
	h.migrating = false
	for _, row := range h.buffered {
		h.shipRow(row)
	}
	h.buffered = nil
}

// shipRow sends one row of values by the authoritative ring, recording
// ground truth at ship time.
func (h *migHarness) shipRow(row []float64) {
	for j, st := range h.cfg.Streams {
		v := row[j]
		h.history[st] = append(h.history[st], v)
		h.sent[st]++
		h.send(h.byName[h.ring.Owner(st)], "mdata", mdataMsg{Stream: st, V: v, Epoch: h.epoch})
	}
}

// ---- probes ----

func (h *migHarness) phaseName() string {
	switch {
	case h.migrating:
		return "mid"
	case h.res.Flipped:
		return "post"
	default:
		return "pre"
	}
}

func (h *migHarness) scatter() {
	h.gatherID++
	id := h.gatherID
	sent := make(map[string]int64, len(h.sent))
	for _, st := range h.cfg.Streams {
		sent[st] = h.sent[st]
	}
	g := &gatherMig{responses: make(map[netsim.NodeID]msumRes), sent: sent, phase: h.phaseName()}
	h.gathers[id] = g
	for _, sid := range h.shardIDs() {
		h.send(sid, "msum", msumReq{ID: id, Epoch: h.epoch})
	}
	ring := h.ring
	if err := h.sim.At(h.sim.Now()+2, func() { h.fold(id, ring) }); err != nil {
		h.violate("%v", err)
	}
}

// fold closes one gather against the ring that was authoritative at
// scatter time: only the owner's copy of each stream counts — a
// retired copy on the old owner must never fold in twice.
func (h *migHarness) fold(id int, ring *cluster.Ring) {
	g := h.gathers[id]
	delete(h.gathers, id)
	now := h.sim.Now()
	probe := MigProbe{T: now, Phase: g.phase}

	arrived := make(map[string][]byte)
	for _, sid := range h.shardIDs() {
		res, ok := g.responses[sid]
		if !ok || res.Stale {
			continue
		}
		probe.Answered++
		for i, name := range res.Names {
			if ring.Owner(name) != migShardName(sid) {
				continue // a retired copy: exactly the double-count hazard
			}
			arrived[name] = res.Sums[i]
		}
	}

	streams := append([]string(nil), h.cfg.Streams...)
	sort.Strings(streams)
	fail := func(err error) {
		probe.Err = err.Error()
		h.res.Probes = append(h.res.Probes, probe)
		h.violate("t=%.9g fold failed: %v", now, err)
	}
	decoded := make(map[string]*core.Summary, len(arrived))
	var target int64
	for _, st := range streams {
		if n := g.sent[st]; n > target {
			target = n
		}
		enc, ok := arrived[st]
		if !ok {
			continue
		}
		sum, err := core.DecodeSummary(enc)
		if err != nil {
			fail(fmt.Errorf("stream %q: %w", st, err))
			return
		}
		decoded[st] = sum
		if sum.Arrivals > target {
			target = sum.Arrivals
		}
	}
	var tr *core.Tree
	for _, st := range streams {
		sum, ok := decoded[st]
		var err error
		if ok {
			if sum.Arrivals < target {
				probe.Advanced = append(probe.Advanced, st)
				if sum, err = core.AdvanceSummary(sum, target, h.mopts); err != nil {
					fail(fmt.Errorf("stream %q: %w", st, err))
					return
				}
			}
		} else {
			probe.Missing = append(probe.Missing, st)
			if target == 0 {
				continue
			}
			if sum, err = core.UnknownSummary(h.opts, 1, target, h.mopts); err != nil {
				fail(fmt.Errorf("stream %q: %w", st, err))
				return
			}
		}
		if tr == nil {
			tr, err = core.FromSummary(sum)
		} else {
			err = tr.MergeSummary(sum, h.mopts)
		}
		if err != nil {
			fail(fmt.Errorf("stream %q: %w", st, err))
			return
		}
	}
	if tr == nil {
		probe.Err = "no data"
		h.res.Probes = append(h.res.Probes, probe)
		return
	}
	val, bound, err := tr.BoundedPoint(h.cfg.ProbeAge)
	if err != nil {
		probe.Err = err.Error()
		h.res.Probes = append(h.res.Probes, probe)
		return
	}
	probe.Value, probe.Bound = val, bound
	twin, err := core.New(h.opts)
	if err != nil {
		fail(err)
		return
	}
	for i := int64(0); i < target; i++ {
		var row float64
		for _, st := range streams {
			if i < int64(len(h.history[st])) {
				row += h.history[st][i]
			}
		}
		twin.Update(row)
	}
	exact, _, err := twin.BoundedPoint(h.cfg.ProbeAge)
	if err != nil {
		fail(fmt.Errorf("twin query: %w", err))
		return
	}
	probe.Exact = exact
	h.res.Probes = append(h.res.Probes, probe)
	const eps = 1e-9
	if diff := val - exact; diff > bound+eps || diff < -bound-eps {
		h.violate("t=%.9g phase=%s answer %v strays %v from the fault-free twin's %v, beyond its bound %v",
			now, g.phase, val, diff, exact, bound)
	}
}

func (h *migHarness) onMigSumRes(m netsim.Message) {
	res, ok := m.Payload.(msumRes)
	if !ok {
		h.violate("driver: bad msumres payload %T", m.Payload)
		return
	}
	if g := h.gathers[res.ID]; g != nil {
		g.responses[res.Shard] = res
	}
}

// ---- run ----

func (h *migHarness) run() (*MigrateResult, error) {
	cfg := h.cfg
	dataRng := rand.New(rand.NewSource(cfg.Seed + 1))
	h.rows = make([][]float64, cfg.DataCount)
	for i := range h.rows {
		h.rows[i] = make([]float64, len(cfg.Streams))
		for j := range h.rows[i] {
			h.rows[i][j] = cfg.ValueLo + dataRng.Float64()*(cfg.ValueHi-cfg.ValueLo)
		}
	}
	for i := 0; i < cfg.DataCount; i++ {
		i := i
		if err := h.sim.At(float64(i+1)*cfg.DataInterval, func() {
			if h.migrating {
				h.buffered = append(h.buffered, h.rows[i])
				return
			}
			h.shipRow(h.rows[i])
		}); err != nil {
			return nil, err
		}
	}
	for i := cfg.ProbeStart; i <= cfg.DataCount; i += cfg.ProbeEvery {
		at := (float64(i) + 0.5) * cfg.DataInterval
		if err := h.sim.At(at, func() { h.scatter() }); err != nil {
			return nil, err
		}
	}
	if err := h.sim.At(cfg.MigrateAt, func() { h.startMigration() }); err != nil {
		return nil, err
	}
	if cfg.StaleWriteAt > 0 {
		if err := h.sim.At(cfg.StaleWriteAt, func() {
			moves := h.moves()
			if len(moves) == 0 {
				return
			}
			st := moves[0]
			h.send(h.byName[h.oldRing.Owner(st)], "mdata",
				mdataMsg{Stream: st, V: (cfg.ValueLo + cfg.ValueHi) / 2, Epoch: h.oldRing.Epoch()})
		}); err != nil {
			return nil, err
		}
	}
	for i, st := range cfg.Script {
		st, idx := st, i
		if err := h.sim.At(st.At, func() {
			if err := st.apply(h.net); err != nil {
				h.violate("step %d (%s) failed: %v", idx, st.Op, err)
			}
		}); err != nil {
			return nil, err
		}
	}
	h.sim.RunUntil(float64(cfg.DataCount)*cfg.DataInterval + cfg.SettleTime)

	// Post-run ledger checks: every non-cold bundle transferred
	// exactly once, gap-free and monotone, and carried every one of its
	// streams.
	applied := make(map[string]int64)
	for _, ch := range h.res.Applied {
		if ch.Offset != applied[ch.Bundle] {
			h.violate("ledger: bundle %s applied chunk at %d, expected %d", ch.Bundle, ch.Offset, applied[ch.Bundle])
		}
		applied[ch.Bundle] += int64(ch.N)
	}
	for _, b := range h.bundles {
		if h.res.Moves[b.moves[0]].Cold {
			continue
		}
		if got := applied[b.name]; got != b.bytes || b.bytes == 0 {
			h.violate("ledger: bundle %s applied %d bytes, bundle is %d", b.name, got, b.bytes)
		}
		for _, i := range b.moves {
			if h.res.Moves[i].Bytes == 0 {
				h.violate("ledger: bundle %s carried no summary of %q", b.name, h.res.Moves[i].Stream)
			}
		}
	}
	// Final fleet state: each stream's canonical summary at its
	// final-ring owner.
	for _, st := range h.cfg.Streams {
		if tr, ok := h.shards[h.byName[h.ring.Owner(st)]].trees[st]; ok {
			h.res.FinalState[st] = tr.AppendSummary(nil)
		}
	}
	if err := h.net.AccountingError(); err != nil {
		h.violate("%v", err)
	}
	h.res.Log = h.net.FormatLog()
	h.res.Counters = h.net.Counters().String()
	return h.res, nil
}
