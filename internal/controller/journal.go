package controller

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"sdme/internal/enforce"
	"sdme/internal/mgmt"
	"sdme/internal/policy"
	"sdme/internal/topo"
)

// Write-ahead journal — the controller's crash-recovery substrate. Every
// piece of mutable planning state (failed-set changes, solved weight
// plans, pushed epochs) is appended as a durable record BEFORE the
// corresponding plan reaches the nodes, so a controller killed at any
// point can be restarted, replay the journal, and resume at the next
// epoch with exactly the plan it last pushed. Static inputs (topology,
// placement, policy table, options) are recorded once as a fingerprint +
// policy dump so replay against a different deployment fails loudly
// instead of producing a silently divergent plan.
//
// Record format (DESIGN §10): each record is
//
//	uint32 BE payload length | uint32 BE CRC-32 (IEEE) of payload | payload
//
// where the payload is an mgmt wire envelope ({"t": kind, "data": ...})
// — the same codec the management channel uses, so the journal kinds
// below live in the same namespace as wire message types. A torn tail
// (partial record from a crash mid-append) is detected by the length /
// CRC check and tolerated: replay stops at the last intact record.

// Journal record kinds.
const (
	JournalDeploy   = "jrnl-deploy"
	JournalPolicies = "jrnl-policies"
	JournalFailed   = "jrnl-failed"
	JournalEpoch    = "jrnl-epoch"
	JournalWeights  = "jrnl-weights"
)

// DeployRecord fingerprints the static planning inputs.
type DeployRecord struct {
	Fingerprint uint64 `json:"fingerprint"`
	Nodes       int    `json:"nodes"`
	Middleboxes int    `json:"middleboxes"`
	Policies    int    `json:"policies"`
}

// PoliciesRecord dumps the policy table (audit trail; the fingerprint is
// what replay checks).
type PoliciesRecord struct {
	Policies []mgmt.PolicyDTO `json:"policies"`
}

// FailedRecord is the full failed-middlebox set after a MarkFailed (full
// set, not a delta, so replay is idempotent and order-tolerant).
type FailedRecord struct {
	Failed []int `json:"failed"`
}

// EpochRecord is the highest config epoch pushed so far. Term, when
// non-zero, names the election term the epoch was pushed under: a new
// leader resumes numbering past the max term-fenced high-water mark it
// replays, so post-takeover epochs never collide with the old leader's.
type EpochRecord struct {
	Epoch uint64 `json:"epoch"`
	Term  uint64 `json:"term,omitempty"`
}

// NodeWeights is one node's weight vectors within a WeightsRecord.
type NodeWeights struct {
	Node int              `json:"node"`
	Rows []mgmt.WeightDTO `json:"rows"`
}

// WeightsRecord is a solved LB weight plan.
type WeightsRecord struct {
	Lambda float64       `json:"lambda"`
	Nodes  []NodeWeights `json:"nodes"`
}

// Journal is an append-only write-ahead log. Safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	records int64
	bytes   int64
	// size is the absolute intact journal length on disk (existing records
	// from earlier handles plus appends through this one) — the offset
	// space the replication stream (replicate.go) addresses. Atomic so
	// catch-up reads (ReadChunk) never contend with an Append blocked in
	// its replication hook waiting for those very reads to finish.
	size atomic.Int64
	// runCRC is the running CRC-32 over the whole intact journal,
	// advertised in leader heartbeats so standbys can detect a diverged
	// prefix (DESIGN §11).
	runCRC atomic.Uint32
	// onAppend, when set, streams each durable record to the replicator
	// under the append lock (offset is where the frame starts, prefixCRC
	// the running CRC-32 over the journal below it — standbys verify
	// their own journal against it before applying). A non-nil error
	// fails the Append: a record the quorum refused must not be treated
	// as logged.
	onAppend func(offset int64, prefixCRC uint32, frame []byte) error
}

// OpenJournal opens (creating if needed) a journal for appending. Any
// torn tail (a partial record from a crash mid-append) is truncated
// away so new appends extend the intact prefix rather than burying
// themselves behind garbage replay would stop at. The parent directory
// is fsynced after opening: without it a freshly created journal's
// directory entry can vanish on host crash even though the file's own
// appends were synced.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("controller: open journal: %w", err)
	}
	intact, records, crc, torn, err := scanFrames(path)
	if err != nil {
		_ = f.Close()
		return nil, err
	}
	if torn {
		if err := f.Truncate(intact); err != nil {
			_ = f.Close()
			return nil, fmt.Errorf("controller: truncate torn journal tail: %w", err)
		}
	}
	if err := syncDir(path); err != nil {
		_ = f.Close()
		return nil, err
	}
	_ = records
	j := &Journal{f: f, path: path}
	j.size.Store(intact)
	j.runCRC.Store(uint32(crc))
	return j, nil
}

// scanFrames walks a journal's framing (length + CRC only, no record
// decoding) and returns the intact prefix length, the record count, the
// running CRC-32 over the intact prefix, and whether a torn/corrupt
// tail follows the prefix.
func scanFrames(path string) (intact int64, records int64, crc uint32, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, false, fmt.Errorf("controller: scan journal: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only handle
	var hdr [8]byte
	for {
		if _, rerr := io.ReadFull(f, hdr[:]); rerr != nil {
			return intact, records, crc, rerr != io.EOF, nil
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if n == 0 || n > 16<<20 {
			return intact, records, crc, true, nil
		}
		buf := make([]byte, n)
		if _, rerr := io.ReadFull(f, buf); rerr != nil {
			return intact, records, crc, true, nil
		}
		if crc32.ChecksumIEEE(buf) != sum {
			return intact, records, crc, true, nil
		}
		crc = crc32.Update(crc, crc32.IEEETable, hdr[:])
		crc = crc32.Update(crc, crc32.IEEETable, buf)
		intact += int64(8 + n)
		records++
	}
}

// syncDir fsyncs a file's parent directory so the directory entry
// itself is durable (creation and truncation both rewrite it).
func syncDir(path string) error {
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("controller: open journal dir: %w", err)
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("controller: sync journal dir: %w", err)
	}
	return nil
}

// Close syncs and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	//vet:ignore lockedblocking -- final fsync must serialize with in-flight appends on the same mutex
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// Append writes one record durably (single write + fsync before
// returning, so a record either exists whole or is a detectable torn
// tail).
func (j *Journal) Append(kind string, v interface{}) error {
	env, err := mgmt.EncodeEnvelope(kind, v)
	if err != nil {
		return err
	}
	buf := make([]byte, 8+len(env))
	binary.BigEndian.PutUint32(buf[:4], uint32(len(env)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(env))
	copy(buf[8:], env)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return errors.New("controller: journal closed")
	}
	//vet:ignore lockedblocking -- WAL contract: record order IS the recovery order, so appends must serialize through the mutex
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("controller: journal append: %w", err)
	}
	//vet:ignore lockedblocking -- fsync must complete before the append is acknowledged, still under the append lock
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("controller: journal sync: %w", err)
	}
	offset := j.size.Load()
	prefixCRC := j.runCRC.Load()
	j.records++
	j.bytes += int64(len(buf))
	j.size.Add(int64(len(buf)))
	j.runCRC.Store(crc32.Update(prefixCRC, crc32.IEEETable, buf))
	if j.onAppend != nil {
		// Replication hook: the record is durable locally; it must now be
		// durable on a quorum before the append is acknowledged upstream.
		//vet:ignore lockedblocking -- WAL contract: quorum replication completes in record order, under the same append lock that defines that order
		if err := j.onAppend(offset, prefixCRC, buf); err != nil {
			return fmt.Errorf("controller: journal replicate: %w", err)
		}
	}
	return nil
}

// SetOnAppend installs the replication hook invoked (under the append
// lock, after the local fsync) with each record's starting offset, the
// running CRC-32 over the journal below that offset, and the raw framed
// bytes. nil detaches. The hook's error fails the Append.
func (j *Journal) SetOnAppend(fn func(offset int64, prefixCRC uint32, frame []byte) error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.onAppend = fn
}

// Stats reports records and bytes appended through this handle.
func (j *Journal) Stats() (records, bytes int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records, j.bytes
}

// Size returns the absolute intact journal length on disk — the offset
// space journal replication addresses.
func (j *Journal) Size() int64 { return j.size.Load() }

// CRC returns the running CRC-32 over the whole intact journal.
func (j *Journal) CRC() uint32 { return j.runCRC.Load() }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// ReadChunk reads up to max raw bytes of intact journal starting at
// offset — the leader side of standby catch-up. The returned slice ends
// on a record boundary by construction (offsets only ever come from
// Size / JournalAck values, which are sums of whole frames).
func (j *Journal) ReadChunk(offset int64, max int) ([]byte, error) {
	size, path := j.size.Load(), j.path
	if path == "" {
		return nil, errors.New("controller: journal has no path")
	}
	if offset < 0 || offset > size {
		return nil, fmt.Errorf("controller: journal read offset %d out of range [0,%d]", offset, size)
	}
	n := size - offset
	if n > int64(max) {
		n = int64(max)
	}
	if n == 0 {
		return nil, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("controller: journal read: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only handle
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, offset); err != nil {
		return nil, fmt.Errorf("controller: journal read at %d: %w", offset, err)
	}
	return buf, nil
}

// CRCAt returns the running CRC-32 over the journal's first offset
// bytes — the prefix mark a catch-up chunk from that offset carries so
// the standby can prove its journal is this journal's prefix before
// applying. Offsets only ever come from Size / JournalAck / JournalFetch
// values, so the prefix ends on a record boundary.
func (j *Journal) CRCAt(offset int64) (uint32, error) {
	if offset == 0 {
		return 0, nil
	}
	size, path := j.size.Load(), j.path
	if offset < 0 || offset > size {
		return 0, fmt.Errorf("controller: journal CRC offset %d out of range [0,%d]", offset, size)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("controller: journal CRC read: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only handle
	var crc uint32
	buf := make([]byte, 64<<10)
	for read := int64(0); read < offset; {
		n := int64(len(buf))
		if offset-read < n {
			n = offset - read
		}
		if _, err := io.ReadFull(f, buf[:n]); err != nil {
			return 0, fmt.Errorf("controller: journal CRC read at %d: %w", read, err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:n])
		read += n
	}
	return crc, nil
}

// LogEpoch records the epoch high-water after a successful push, fenced
// by the pushing leader's term (0 in single-controller deployments);
// callers invoke it with mgmt.Server.Epoch() once a plan round lands.
func (j *Journal) LogEpoch(epoch, term uint64) error {
	return j.Append(JournalEpoch, EpochRecord{Epoch: epoch, Term: term})
}

// JournalState is the result of replaying a journal: the last intact
// value of every journaled quantity.
type JournalState struct {
	Fingerprint uint64
	Policies    []mgmt.PolicyDTO
	Failed      []topo.NodeID
	Epoch       uint64
	// Term is the highest election term any replayed epoch record was
	// fenced with (0 = single-controller history). A takeover resumes
	// epoch numbering past Epoch and term numbering past Term.
	Term    uint64
	Lambda  float64
	Weights map[topo.NodeID]map[enforce.WeightKey][]float64
	// Records counts intact records replayed; Bytes is the intact prefix
	// length in bytes (the replication offset a standby resumes from);
	// Torn reports whether a partial tail record was discarded (a crash
	// mid-append).
	Records int
	Bytes   int64
	Torn    bool
}

// ReplayJournal reads a journal back, stopping cleanly at a torn tail.
func ReplayJournal(path string) (*JournalState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("controller: open journal: %w", err)
	}
	defer f.Close() //nolint:errcheck // read-only handle
	st := &JournalState{}
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return st, nil
			}
			st.Torn = true // partial header
			return st, nil
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		if n == 0 || n > 16<<20 {
			st.Torn = true
			return st, nil
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(f, buf); err != nil {
			st.Torn = true // partial payload
			return st, nil
		}
		if crc32.ChecksumIEEE(buf) != sum {
			st.Torn = true // corrupt record: stop replay here
			return st, nil
		}
		env, err := mgmt.DecodeEnvelope(buf)
		if err != nil {
			st.Torn = true
			return st, nil
		}
		if err := st.apply(env); err != nil {
			return nil, err
		}
		st.Records++
		st.Bytes += int64(8 + n)
	}
}

// apply folds one intact record into the state (last record wins).
func (st *JournalState) apply(env *mgmt.Envelope) error {
	switch env.T {
	case JournalDeploy:
		var r DeployRecord
		if err := json.Unmarshal(env.Data, &r); err != nil {
			return fmt.Errorf("controller: journal deploy record: %w", err)
		}
		st.Fingerprint = r.Fingerprint
	case JournalPolicies:
		var r PoliciesRecord
		if err := json.Unmarshal(env.Data, &r); err != nil {
			return fmt.Errorf("controller: journal policies record: %w", err)
		}
		st.Policies = r.Policies
	case JournalFailed:
		var r FailedRecord
		if err := json.Unmarshal(env.Data, &r); err != nil {
			return fmt.Errorf("controller: journal failed record: %w", err)
		}
		st.Failed = st.Failed[:0]
		for _, id := range r.Failed {
			st.Failed = append(st.Failed, topo.NodeID(id))
		}
	case JournalEpoch:
		var r EpochRecord
		if err := json.Unmarshal(env.Data, &r); err != nil {
			return fmt.Errorf("controller: journal epoch record: %w", err)
		}
		if r.Epoch > st.Epoch {
			st.Epoch = r.Epoch
		}
		if r.Term > st.Term {
			st.Term = r.Term
		}
	case JournalWeights:
		var r WeightsRecord
		if err := json.Unmarshal(env.Data, &r); err != nil {
			return fmt.Errorf("controller: journal weights record: %w", err)
		}
		st.Lambda = r.Lambda
		st.Weights = make(map[topo.NodeID]map[enforce.WeightKey][]float64, len(r.Nodes))
		for _, nw := range r.Nodes {
			st.Weights[topo.NodeID(nw.Node)] = mgmt.WeightsFromDTO(nw.Rows)
		}
	default:
		return fmt.Errorf("controller: unknown journal record kind %q", env.T)
	}
	return nil
}

// Fingerprint hashes the controller's static planning inputs: topology
// size, middlebox placement, policy table, and the options that shape the
// plan. Two controllers with equal fingerprints compute identical
// candidate sets from identical failed-sets, which is what makes journal
// replay sufficient for byte-identical plan recovery.
func (c *Controller) Fingerprint() uint64 {
	h := fnv.New64a()
	put := func(format string, args ...interface{}) {
		fmt.Fprintf(h, format, args...) //nolint:errcheck // fnv never errors
	}
	put("g:%d/%d/%d;", c.dep.Graph.NumNodes(), c.dep.Graph.NumLinks(), c.dep.NumSubnets())
	for _, mb := range c.dep.MBNodes {
		put("mb:%d=", int(mb))
		for _, f := range c.dep.FuncsOf(mb) {
			put("%d,", int(f))
		}
	}
	for _, p := range c.policies.All() {
		put("p:%d/%d/%s/%s;", p.ID, p.Prio, p.Desc.String(), p.Actions.String())
	}
	put("o:%d/%d/%v/%v/%d/%d/%d;", int(c.opts.Strategy), c.opts.KDefault,
		c.opts.CapLambda, c.opts.LabelSwitching, c.opts.FlowTTL, c.opts.LabelTTL,
		c.opts.HashSeed)
	funcs := make([]int, 0, len(c.opts.K))
	for f := range c.opts.K {
		funcs = append(funcs, int(f))
	}
	sort.Ints(funcs)
	for _, f := range funcs {
		put("k:%d=%d;", f, c.opts.K[policy.FuncType(f)])
	}
	return h.Sum64()
}

// SetJournal attaches a write-ahead journal: the static inputs are
// recorded immediately, and every subsequent MarkFailed / LB solve
// appends its record before the result can reach any node. nil detaches.
func (c *Controller) SetJournal(j *Journal) error {
	c.journal = j
	if j == nil {
		return nil
	}
	if err := j.Append(JournalDeploy, DeployRecord{
		Fingerprint: c.Fingerprint(),
		Nodes:       c.dep.Graph.NumNodes(),
		Middleboxes: len(c.dep.MBNodes),
		Policies:    c.policies.Len(),
	}); err != nil {
		return err
	}
	return j.Append(JournalPolicies, PoliciesRecord{Policies: policiesToDTO(c)})
}

// Journal returns the attached journal (nil if none).
func (c *Controller) Journal() *Journal { return c.journal }

// journalFailed appends the current failed set (no-op without a journal).
func (c *Controller) journalFailed() error {
	if c.journal == nil {
		return nil
	}
	r := FailedRecord{}
	for _, id := range c.Failed() {
		r.Failed = append(r.Failed, int(id))
	}
	return c.journal.Append(JournalFailed, r)
}

// journalWeights appends a solved weight plan (no-op without a journal).
func (c *Controller) journalWeights(sol *LBSolution) error {
	if c.journal == nil {
		return nil
	}
	r := WeightsRecord{Lambda: sol.Lambda}
	ids := make([]topo.NodeID, 0, len(sol.Weights))
	for id := range sol.Weights {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r.Nodes = append(r.Nodes, NodeWeights{
			Node: int(id),
			Rows: mgmt.ConfigToDTO(0, enforce.Config{Weights: sol.Weights[id]}).Weights,
		})
	}
	return c.journal.Append(JournalWeights, r)
}

// RestoreFromJournal folds a replayed journal state back into the
// controller: the failed set is restored and cached assignments are
// invalidated so the next ComputeCandidates/BuildNodes reproduces the
// pre-crash plan. It refuses a journal whose deployment fingerprint does
// not match this controller's inputs.
func (c *Controller) RestoreFromJournal(st *JournalState) error {
	if st.Fingerprint != c.Fingerprint() {
		return fmt.Errorf("controller: journal fingerprint %#x does not match deployment %#x",
			st.Fingerprint, c.Fingerprint())
	}
	c.failed = make(map[topo.NodeID]bool, len(st.Failed))
	for _, id := range st.Failed {
		c.failed[id] = true
	}
	c.candidates = nil
	return nil
}

// RestoredSolution rebuilds an LBSolution from replayed journal state
// (nil if the journal recorded no weight plan), so the restart path can
// reuse ApplyWeights and the weight rollout exactly like a live solve.
func (st *JournalState) RestoredSolution() *LBSolution {
	if st.Weights == nil {
		return nil
	}
	return &LBSolution{Lambda: st.Lambda, Weights: st.Weights}
}

// policiesToDTO dumps the controller's full policy table in wire form.
func policiesToDTO(c *Controller) []mgmt.PolicyDTO {
	cfg := enforce.Config{Policies: c.policies.All()}
	return mgmt.ConfigToDTO(0, cfg).Policies
}
