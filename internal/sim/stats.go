package sim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series accumulates duration samples and summarizes them. It is used by
// the experiment harness to report fault latencies and the like.
type Series struct {
	Name    string
	samples []time.Duration

	// sorted caches the ascending-order view shared by Percentile, Min and
	// Max; Add invalidates it. Repeated percentile queries over a stable
	// series (how reports read it) sort once instead of copy+sort per call.
	sorted []time.Duration
}

// NewSeries returns an empty, named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends one sample.
func (s *Series) Add(d time.Duration) {
	s.samples = append(s.samples, d)
	s.sorted = nil
}

// N returns the sample count.
func (s *Series) N() int { return len(s.samples) }

// Sum returns the total of all samples.
func (s *Series) Sum() time.Duration {
	var t time.Duration
	for _, d := range s.samples {
		t += d
	}
	return t
}

// Mean returns the average sample, or zero when empty.
func (s *Series) Mean() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	return s.Sum() / time.Duration(len(s.samples))
}

// sortedView returns the cached ascending-order copy of the samples,
// (re)building it if an Add invalidated it.
func (s *Series) sortedView() []time.Duration {
	if s.sorted == nil {
		s.sorted = append([]time.Duration(nil), s.samples...)
		sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i] < s.sorted[j] })
	}
	return s.sorted
}

// Min returns the smallest sample, or zero when empty.
func (s *Series) Min() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	return s.sortedView()[0]
}

// Max returns the largest sample, or zero when empty.
func (s *Series) Max() time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	v := s.sortedView()
	return v[len(v)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank, or zero when empty.
func (s *Series) Percentile(p float64) time.Duration {
	if len(s.samples) == 0 {
		return 0
	}
	sorted := s.sortedView()
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// String implements fmt.Stringer with a one-line summary.
func (s *Series) String() string {
	return fmt.Sprintf("%s: n=%d mean=%v min=%v max=%v",
		s.Name, s.N(), s.Mean(), s.Min(), s.Max())
}

// Ctr identifies one of the fixed protocol counters. Every counter the
// memory system bumps on its steady-state paths has an enum value, so the
// per-message accounting is an array index, not a map op on a string key.
// The names the enum values map to (see ctrNames) are the exact strings
// experiment reports have always printed; a golden test pins them.
type Ctr uint8

const (
	CtrAsymCopies Ctr = iota
	CtrCopiesDropped
	CtrCopyPagerFaults
	CtrCopyRequests
	CtrCowCopies
	CtrDataRequests
	CtrDataSupplies
	CtrDataUnavailable
	CtrDataUnlocks
	CtrEvictCancelled
	CtrEvictDiscard
	CtrEvictDrop
	CtrEvictOwner
	CtrEvictOwnerXfer
	CtrEvictPageXfer
	CtrEvictStuck
	CtrEvictToPager
	CtrEvictions
	CtrFaultRedrives
	CtrFaults
	CtrFaultsAborted
	CtrFreshGrants
	CtrFwdDynamic
	CtrFwdGlobal
	CtrFwdStatic
	CtrGrantRetries
	CtrHintEvictions
	CtrHintNacks
	CtrHomeFreshGrants
	CtrHomePagerSupplies
	CtrHomeRetries
	CtrHopEscalations
	CtrInvalidations
	CtrLateAcks
	CtrLateGrants
	CtrLocalPushes
	CtrMgrDirtyToPager
	CtrMgrFlushes
	CtrMgrRequests
	CtrMgrUpgrades
	CtrMsgs
	CtrNacks
	CtrOwnershipLost
	CtrOwnershipReclaimed
	CtrOwnerXferAccepted
	CtrPageOfferAccepted
	CtrPageOfferDeclined
	CtrPagesLost
	CtrPeerDowns
	CtrProtoTransitions
	CtrProxyRequests
	CtrPullGrants
	CtrPullRequests
	CtrPullRetries
	CtrPulls
	CtrPushLocks
	CtrPushSupplies
	CtrPushesCancelled
	CtrPushesInstalled
	CtrPushesStarted
	CtrPushScanInflight
	CtrRangeLocks
	CtrRangeUnlocks
	CtrReadGrants
	CtrReqNacks
	CtrRingScanHops
	CtrSelfUpgrades
	CtrShadowInterpose
	CtrStaleGrants
	CtrStaticMisses
	CtrStaticOwnerHits
	CtrStaticPagedHits
	CtrWriteGrants
	CtrZeroFills

	// NumCtrs is the number of fixed counters (array length for V).
	NumCtrs
)

// ctrNames is the stable enum→name table. Report output is built from
// these strings, so they must never change: they are the counter names the
// committed experiment records (results_full.txt) were produced with.
var ctrNames = [NumCtrs]string{
	CtrAsymCopies:         "asym_copies",
	CtrCopiesDropped:      "copies_dropped",
	CtrCopyPagerFaults:    "copy_pager_faults",
	CtrCopyRequests:       "copy_requests",
	CtrCowCopies:          "cow_copies",
	CtrDataRequests:       "data_requests",
	CtrDataSupplies:       "data_supplies",
	CtrDataUnavailable:    "data_unavailable",
	CtrDataUnlocks:        "data_unlocks",
	CtrEvictCancelled:     "evict_cancelled",
	CtrEvictDiscard:       "evict_discard",
	CtrEvictDrop:          "evict_drop",
	CtrEvictOwner:         "evict_owner",
	CtrEvictOwnerXfer:     "evict_owner_xfer",
	CtrEvictPageXfer:      "evict_page_xfer",
	CtrEvictStuck:         "evict_stuck",
	CtrEvictToPager:       "evict_to_pager",
	CtrEvictions:          "evictions",
	CtrFaultRedrives:      "fault_redrives",
	CtrFaults:             "faults",
	CtrFaultsAborted:      "faults_aborted",
	CtrFreshGrants:        "fresh_grants",
	CtrFwdDynamic:         "fwd_dynamic",
	CtrFwdGlobal:          "fwd_global",
	CtrFwdStatic:          "fwd_static",
	CtrGrantRetries:       "grant_retries",
	CtrHintEvictions:      "hint_evictions",
	CtrHintNacks:          "hint_nacks",
	CtrHomeFreshGrants:    "home_fresh_grants",
	CtrHomePagerSupplies:  "home_pager_supplies",
	CtrHomeRetries:        "home_retries",
	CtrHopEscalations:     "hop_escalations",
	CtrInvalidations:      "invalidations",
	CtrLateAcks:           "late_acks",
	CtrLateGrants:         "late_grants",
	CtrLocalPushes:        "local_pushes",
	CtrMgrDirtyToPager:    "mgr_dirty_to_pager",
	CtrMgrFlushes:         "mgr_flushes",
	CtrMgrRequests:        "mgr_requests",
	CtrMgrUpgrades:        "mgr_upgrades",
	CtrMsgs:               "msgs",
	CtrNacks:              "nacks",
	CtrOwnershipLost:      "ownership_lost",
	CtrOwnershipReclaimed: "ownership_reclaimed",
	CtrOwnerXferAccepted:  "ownerxfer_accepted",
	CtrPageOfferAccepted:  "pageoffer_accepted",
	CtrPageOfferDeclined:  "pageoffer_declined",
	CtrPagesLost:          "pages_lost",
	CtrPeerDowns:          "peer_downs",
	CtrProtoTransitions:   "proto_transitions",
	CtrProxyRequests:      "proxy_requests",
	CtrPullGrants:         "pull_grants",
	CtrPullRequests:       "pull_requests",
	CtrPullRetries:        "pull_retries",
	CtrPulls:              "pulls",
	CtrPushLocks:          "push_locks",
	CtrPushSupplies:       "push_supplies",
	CtrPushesCancelled:    "pushes_cancelled",
	CtrPushesInstalled:    "pushes_installed",
	CtrPushesStarted:      "pushes_started",
	CtrPushScanInflight:   "pushscan_inflight",
	CtrRangeLocks:         "range_locks",
	CtrRangeUnlocks:       "range_unlocks",
	CtrReadGrants:         "read_grants",
	CtrReqNacks:           "req_nacks",
	CtrRingScanHops:       "ring_scan_hops",
	CtrSelfUpgrades:       "self_upgrades",
	CtrShadowInterpose:    "shadow_interpose",
	CtrStaleGrants:        "stale_grants",
	CtrStaticMisses:       "static_misses",
	CtrStaticOwnerHits:    "static_owner_hits",
	CtrStaticPagedHits:    "static_paged_hits",
	CtrWriteGrants:        "write_grants",
	CtrZeroFills:          "zero_fills",
}

// ctrByName inverts ctrNames so Get can look a counter up by its name.
var ctrByName = func() map[string]Ctr {
	m := make(map[string]Ctr, NumCtrs)
	for k, name := range ctrNames {
		m[name] = Ctr(k)
	}
	return m
}()

// String returns the counter's stable report name.
func (k Ctr) String() string {
	if k >= NumCtrs {
		return fmt.Sprintf("ctr#%d", uint8(k))
	}
	return ctrNames[k]
}

// Counters is a named set of monotonically increasing counters used for
// protocol accounting (messages sent, faults served, pageouts, ...): an
// enum-indexed array, so the hot path is c.V[CtrMsgs]++ — one indexed add
// with no hashing. Reports read counters by name through Names and Get.
type Counters struct {
	V [NumCtrs]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{} }

// Get returns the named counter's value (zero for an unknown name).
func (c *Counters) Get(name string) int64 {
	if k, ok := ctrByName[name]; ok {
		return c.V[k]
	}
	return 0
}

// AddTo adds every touched (nonzero) counter into m by name — the merge
// behind each per-node and cluster-wide counter report.
func (c *Counters) AddTo(m map[string]int64) {
	for k, v := range c.V {
		if v != 0 {
			m[ctrNames[k]] += v
		}
	}
}

// Names returns the names of all touched (nonzero) counters in sorted
// order.
func (c *Counters) Names() []string {
	names := make([]string, 0, 8)
	for k, v := range c.V {
		if v != 0 {
			names = append(names, ctrNames[k])
		}
	}
	sort.Strings(names)
	return names
}
