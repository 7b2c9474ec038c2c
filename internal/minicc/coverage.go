package minicc

import (
	"fmt"
	"sort"
)

// Coverage records which instrumentation sites inside the compiler were
// exercised by a compilation. It stands in for the gcov function/line
// coverage measurements of the paper's Figure 9: a "function" is a
// component group (the prefix before the first dot of a site name) and a
// "line" is an individual site.
type Coverage struct {
	// counts is indexed by siteID.
	counts []int
	// lenient recorders collect unregistered site names instead of
	// panicking; see NewLenientCoverage.
	lenient bool
	unknown map[string]int
}

// siteID indexes allSites.
type siteID int32

// opNames maps operator spellings to site-name components.
var opNames = map[string]string{
	"+": "add", "-": "sub", "*": "mul", "/": "div", "%": "mod",
	"&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "shr",
	"==": "eq", "!=": "ne", "<": "lt", ">": "gt", "<=": "le", ">=": "ge",
	"!": "not", "~": "bnot",
}

// binOps lists the operators of the operator-parameterized site families,
// in binOpIndex order.
var binOps = [...]string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "==", "!=", "<", ">", "<=", ">="}

// binOpIndex returns op's position in binOps, or -1.
func binOpIndex(op string) int {
	switch op {
	case "+":
		return 0
	case "-":
		return 1
	case "*":
		return 2
	case "/":
		return 3
	case "%":
		return 4
	case "&":
		return 5
	case "|":
		return 6
	case "^":
		return 7
	case "<<":
		return 8
	case ">>":
		return 9
	case "==":
		return 10
	case "!=":
		return 11
	case "<":
		return 12
	case ">":
		return 13
	case "<=":
		return 14
	case ">=":
		return 15
	}
	return -1
}

// allSites is the static registry of instrumentation sites. Hit panics on
// unregistered names, keeping this list in sync with the code. Several
// families are parameterized by operator — the "lines" of the compiler
// that only specific constant/value patterns reach, which is what makes
// coverage sensitive to variable usage patterns (paper Figure 9).
var allSites = buildSites()

func buildSites() []string {
	sites := []string{
		"lower.entry", "lower.func", "lower.exprstmt", "lower.if", "lower.while",
		"lower.dowhile", "lower.for", "lower.return", "lower.goto", "lower.decl",
		"lower.assign", "lower.call", "lower.cond", "lower.condlvalue",
		"lower.shortcircuit",

		"constfold.entry", "constfold.bin", "constfold.un", "constfold.conv",
		"constfold.branch", "constfold.branch.taken", "constfold.branch.dropped",

		"constprop.entry", "constprop.meet", "constprop.replace", "constprop.branch",

		"copyprop.entry", "copyprop.replace",

		"cse.entry", "cse.hit", "cse.commute",

		"dce.entry", "dce.remove", "dce.deadstore",

		"simplifycfg.entry", "simplifycfg.unreachable", "simplifycfg.merge",
		"simplifycfg.thread",

		"licm.entry", "licm.loop", "licm.hoist",

		"alias.entry", "alias.forward", "alias.clobber",

		"vm.entry", "vm.call", "vm.load", "vm.store", "vm.bin", "vm.branch",
		"vm.printf",
	}
	for _, op := range binOps {
		n := opNames[op]
		sites = append(sites,
			"constfold.bin."+n,
			"constprop.replace."+n,
			"cse.hit."+n,
			"licm.hoist."+n,
			"vm.bin."+n,
		)
	}
	// folding results: zero/nonzero constants steer different downstream
	// simplifications
	for _, n := range []string{"zero", "nonzero", "negative"} {
		sites = append(sites, "constfold.result."+n)
	}
	return sites
}

// siteIdx maps each registered site name to its siteID.
var siteIdx = func() map[string]siteID {
	m := make(map[string]siteID, len(allSites))
	for i, s := range allSites {
		m[s] = siteID(i)
	}
	return m
}()

// siteOrder lists every siteID in site-name order, the order of Snapshot.
var siteOrder = func() []siteID {
	out := make([]siteID, len(allSites))
	for i := range out {
		out[i] = siteID(i)
	}
	sort.Slice(out, func(i, j int) bool { return allSites[out[i]] < allSites[out[j]] })
	return out
}()

// mustSite returns the ID of a registered site; the hot instrumentation
// points below resolve theirs once, at package initialization.
func mustSite(name string) siteID {
	id, ok := siteIdx[name]
	if !ok {
		panic("minicc: unregistered coverage site " + name)
	}
	return id
}

// opFamily holds the siteIDs of one operator-parameterized family, indexed
// by binOpIndex.
type opFamily [len(binOps)]siteID

func mustFamily(name string) *opFamily {
	var f opFamily
	for i, op := range binOps {
		f[i] = mustSite(name + "." + opNames[op])
	}
	return &f
}

// Sites hit once per executed instruction, per rewritten instruction, or
// per block.
var (
	siteConstFoldBin       = mustSite("constfold.bin")
	siteConstFoldUn        = mustSite("constfold.un")
	siteConstFoldConv      = mustSite("constfold.conv")
	siteConstFoldBranch    = mustSite("constfold.branch")
	siteConstFoldTaken     = mustSite("constfold.branch.taken")
	siteConstFoldDropped   = mustSite("constfold.branch.dropped")
	siteConstFoldZero      = mustSite("constfold.result.zero")
	siteConstFoldNegative  = mustSite("constfold.result.negative")
	siteConstFoldNonzero   = mustSite("constfold.result.nonzero")
	siteConstPropMeet      = mustSite("constprop.meet")
	siteConstPropReplace   = mustSite("constprop.replace")
	siteConstPropBranch    = mustSite("constprop.branch")
	siteCopyPropReplace    = mustSite("copyprop.replace")
	siteCSEHit             = mustSite("cse.hit")
	siteCSECommute         = mustSite("cse.commute")
	siteDCERemove          = mustSite("dce.remove")
	siteDCEDeadStore       = mustSite("dce.deadstore")
	siteSimplifyCFGThread  = mustSite("simplifycfg.thread")
	siteSimplifyCFGMerge   = mustSite("simplifycfg.merge")
	siteLICMLoop           = mustSite("licm.loop")
	siteLICMHoist          = mustSite("licm.hoist")
	siteAliasForward       = mustSite("alias.forward")
	siteAliasClobber       = mustSite("alias.clobber")
	siteVMCall             = mustSite("vm.call")
	siteVMLoad             = mustSite("vm.load")
	siteVMStore            = mustSite("vm.store")
	siteVMBin              = mustSite("vm.bin")
	siteVMBranch           = mustSite("vm.branch")
	familyConstFoldBin     = mustFamily("constfold.bin")
	familyConstPropReplace = mustFamily("constprop.replace")
	familyCSEHit           = mustFamily("cse.hit")
	familyLICMHoist        = mustFamily("licm.hoist")
	familyVMBin            = mustFamily("vm.bin")
)

// NewCoverage returns an empty coverage recorder. Hit panics on
// unregistered site names, which keeps the static registry in sync with the
// instrumented code; long-running callers that must not crash on registry
// drift should use NewLenientCoverage instead.
func NewCoverage() *Coverage {
	return &Coverage{counts: make([]int, len(allSites)), unknown: make(map[string]int)}
}

// NewLenientCoverage returns a recorder for long-running campaign workers:
// hits on unregistered sites are collected (and later reported by Err)
// instead of panicking, so registry drift surfaces as a campaign error
// rather than a crashed worker process.
func NewLenientCoverage() *Coverage {
	return &Coverage{counts: make([]int, len(allSites)), lenient: true, unknown: make(map[string]int)}
}

// Hit records one execution of a site. A nil receiver is a no-op recorder.
func (c *Coverage) Hit(site string) {
	if c == nil {
		return
	}
	id, ok := siteIdx[site]
	if !ok {
		if c.lenient {
			c.unknown[site]++
			return
		}
		panic("minicc: unregistered coverage site " + site)
	}
	c.counts[id]++
}

// hit records one execution of a registered site by ID.
func (c *Coverage) hit(id siteID) {
	if c != nil {
		c.counts[id]++
	}
}

// hitOp records a hit on the member of an operator-parameterized family
// named by op; operators outside the family are ignored.
func (c *Coverage) hitOp(f *opFamily, op string) {
	if c == nil {
		return
	}
	if i := binOpIndex(op); i >= 0 {
		c.counts[f[i]]++
	}
}

// addPeriods adds k more periods of hits to every site, one period being
// the hits recorded since base was copied from the counts.
func (c *Coverage) addPeriods(base []int, k int64) {
	if c == nil {
		return
	}
	for i, n := range base {
		c.counts[i] += int(k) * (c.counts[i] - n)
	}
}

// Record is the error-returning form of Hit for campaign-facing callers:
// an unregistered site is reported instead of panicking, and the hit is
// retained in the unknown-site tally for diagnosis via Err.
func (c *Coverage) Record(site string) error {
	if c == nil {
		return nil
	}
	id, ok := siteIdx[site]
	if !ok {
		c.unknown[site]++
		return fmt.Errorf("minicc: unregistered coverage site %q", site)
	}
	c.counts[id]++
	return nil
}

// Err reports registry drift observed by a lenient recorder: non-nil when
// any hit named a site missing from the static registry.
func (c *Coverage) Err() error {
	if c == nil || len(c.unknown) == 0 {
		return nil
	}
	names := make([]string, 0, len(c.unknown))
	for s := range c.unknown {
		names = append(names, s)
	}
	sort.Strings(names)
	return fmt.Errorf("minicc: %d unregistered coverage site(s) hit: %v", len(names), names)
}

// Merge accumulates another coverage record into c.
func (c *Coverage) Merge(other *Coverage) {
	if c == nil || other == nil {
		return
	}
	for id, n := range other.counts {
		c.counts[id] += n
	}
}

// Snapshot is an immutable, sorted set of covered site names — the
// position-independent "what has been seen" half of a Coverage recorder,
// cheap to diff and merge across campaign shards.
type Snapshot []string

// Snapshot returns the sorted set of registered sites hit at least once.
func (c *Coverage) Snapshot() Snapshot {
	if c == nil {
		return nil
	}
	n := 0
	for _, k := range c.counts {
		if k > 0 {
			n++
		}
	}
	out := make(Snapshot, 0, n)
	for _, id := range siteOrder {
		if c.counts[id] > 0 {
			out = append(out, allSites[id])
		}
	}
	return out
}

// Diff returns the sites in s that are absent from base, sorted — the
// coverage delta a shard contributes over an established frontier.
func (s Snapshot) Diff(base Snapshot) []string {
	var out []string
	i, j := 0, 0
	for i < len(s) {
		switch {
		case j >= len(base) || s[i] < base[j]:
			out = append(out, s[i])
			i++
		case s[i] == base[j]:
			i++
			j++
		default:
			j++
		}
	}
	return out
}

// Merge returns the sorted union of two snapshots.
func (s Snapshot) Merge(other Snapshot) Snapshot {
	out := make(Snapshot, 0, len(s)+len(other))
	i, j := 0, 0
	for i < len(s) || j < len(other) {
		switch {
		case j >= len(other):
			out = append(out, s[i])
			i++
		case i >= len(s):
			out = append(out, other[j])
			j++
		case s[i] < other[j]:
			out = append(out, s[i])
			i++
		case s[i] > other[j]:
			out = append(out, other[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Contains reports whether the snapshot covers a site.
func (s Snapshot) Contains(site string) bool {
	i := sort.SearchStrings(s, site)
	return i < len(s) && s[i] == site
}

// AddTo inserts the snapshot's sites into a frontier set and reports how
// many were new — the one-pass novelty accounting the campaign scheduler
// runs per shard against both the campaign-wide and the per-region
// frontier.
func (s Snapshot) AddTo(frontier map[string]bool) int {
	novel := 0
	for _, site := range s {
		if !frontier[site] {
			frontier[site] = true
			novel++
		}
	}
	return novel
}

// SiteCount returns the hit count of a site.
func (c *Coverage) SiteCount(site string) int {
	id, ok := siteIdx[site]
	if c == nil || !ok {
		return 0
	}
	return c.counts[id]
}

// LineCoverage is the fraction of registered sites hit at least once.
func (c *Coverage) LineCoverage() float64 {
	if c == nil || len(allSites) == 0 {
		return 0
	}
	hit := 0
	for _, n := range c.counts {
		if n > 0 {
			hit++
		}
	}
	return float64(hit) / float64(len(allSites))
}

// FunctionCoverage is the fraction of component groups (site-name prefixes)
// hit at least once.
func (c *Coverage) FunctionCoverage() float64 {
	groups := make(map[string]bool)
	hit := make(map[string]bool)
	for id, s := range allSites {
		g := groupOf(s)
		groups[g] = true
		if c != nil && c.counts[id] > 0 {
			hit[g] = true
		}
	}
	if len(groups) == 0 {
		return 0
	}
	return float64(len(hit)) / float64(len(groups))
}

func groupOf(site string) string {
	for i := 0; i < len(site); i++ {
		if site[i] == '.' {
			return site[:i]
		}
	}
	return site
}

// Sites returns all registered sites, sorted.
func Sites() []string {
	out := append([]string(nil), allSites...)
	sort.Strings(out)
	return out
}
