package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Cluster is a set of nodes, indexed by GPU model for heterogeneous
// pools.
type Cluster struct {
	nodes []*Node
	byID  map[int]*Node
	// byModel holds one placement index per GPU model, and models lists
	// them in first-seen order (what a request for any model ranges
	// over).
	byModel map[string]*modelIndex
	models  []*modelIndex

	// evictions is the longest eviction history any node has held;
	// loose is set once a node counted half a card more usage than its
	// cards hold (a whole-card pod of fractional size).
	evictions int
	loose     bool

	// used, hp and spot keep the whole-cluster usage totals, filed by
	// Node.bump.
	used, hp, spot book

	// upCapacity is the total card count over non-down nodes,
	// maintained incrementally. Capacities are integers, so the
	// running total is bit-identical to the scan it replaces no
	// matter the order of updates.
	upCapacity int

	// nextID is one past the highest node ID added, floored at 0: the
	// first ID AddPool numbers from.
	nextID int
}

// New builds an empty cluster.
func New() *Cluster {
	return &Cluster{byModel: make(map[string]*modelIndex), byID: make(map[int]*Node)}
}

// NewHomogeneous builds a cluster of n nodes with gpusPerNode GPUs of
// a single model, matching the paper's simulation setup (287 8-card
// A100 nodes).
func NewHomogeneous(model string, n, gpusPerNode int) *Cluster {
	c := New()
	c.reserve(n)
	for i := 0; i < n; i++ {
		c.AddNode(NewNode(i, model, gpusPerNode))
	}
	return c
}

// Pool describes one homogeneous slice of a heterogeneous cluster.
type Pool struct {
	Model       string
	Nodes       int
	GPUsPerNode int
	// Tier is the capacity tier the pool's nodes are billed under
	// ("spot", "on-demand", "reserved"). Empty means owned/reserved
	// capacity; autoscalers stamp it on provisioned pools so cost
	// collectors can attribute spend per tier.
	Tier string
}

// NewHeterogeneous builds a multi-model cluster from pools, numbering
// nodes sequentially.
func NewHeterogeneous(pools []Pool) *Cluster {
	c := New()
	id := 0
	for _, p := range pools {
		c.reserve(p.Nodes)
		for i := 0; i < p.Nodes; i++ {
			c.AddNode(NewNode(id, p.Model, p.GPUsPerNode))
			id++
		}
	}
	return c
}

// reserve makes room for n more nodes.
func (c *Cluster) reserve(n int) {
	c.nodes = slices.Grow(c.nodes, n)
	c.used.reserve(n)
	c.hp.reserve(n)
	c.spot.reserve(n)
}

// AddNode registers a node, whatever it already holds.
func (c *Cluster) AddNode(n *Node) {
	ix := c.byModel[n.Model]
	if ix == nil {
		ix = &modelIndex{cl: c}
		c.byModel[n.Model] = ix
		c.models = append(c.models, ix)
	}
	for len(ix.free) <= n.Capacity() {
		ix.free = append(ix.free, nil)
		ix.pristine = append(ix.pristine, nil)
	}
	n.owner, n.ord = ix, int32(len(c.nodes))
	c.nodes = append(c.nodes, n)
	ix.nodes = append(ix.nodes, n)
	c.byID[n.ID] = n
	c.nextID = max(c.nextID, n.ID+1)
	c.used.grow()
	c.hp.grow()
	c.spot.grow()
	if !n.down {
		c.upCapacity += n.Capacity()
	}
	n.bump()
}

// AddPool grows the cluster by a pool of fresh nodes, numbering them
// after the current maximum ID, and returns the new nodes. It is how
// an autoscaler's provisioned capacity joins the cluster mid-run.
func (c *Cluster) AddPool(p Pool) []*Node {
	id := c.nextID
	added := make([]*Node, 0, p.Nodes)
	c.reserve(p.Nodes)
	for i := 0; i < p.Nodes; i++ {
		n := NewNode(id, p.Model, p.GPUsPerNode)
		n.Tier = p.Tier
		c.AddNode(n)
		added = append(added, n)
		id++
	}
	return added
}

// Node returns the node with the given ID, or nil.
func (c *Cluster) Node(id int) *Node { return c.byID[id] }

// DomainName returns the canonical failure-domain name of rack r in
// zone z — the single source of truth for the names AssignDomains
// stamps and scenario generators target.
func DomainName(zone, rack int) string {
	return fmt.Sprintf("zone-%d/rack-%d", zone, rack)
}

// AssignDomains lays a zones × racksPerZone failure-domain topology
// over the cluster: nodes are split into contiguous ID-ordered blocks,
// one block per rack, and stamped with DomainName domains.
// Correlated-failure scenario actions target these domains. Node
// counts that do not divide evenly leave the last rack(s) short,
// never empty; zones or racksPerZone < 1 are treated as 1.
func (c *Cluster) AssignDomains(zones, racksPerZone int) {
	if zones < 1 {
		zones = 1
	}
	if racksPerZone < 1 {
		racksPerZone = 1
	}
	racks := zones * racksPerZone
	n := len(c.nodes)
	for i, node := range c.nodes {
		// Rack r gets nodes [r*n/racks, (r+1)*n/racks): contiguous,
		// balanced to within one node, no empty racks while n ≥ racks.
		r := i * racks / n
		node.Domain = DomainName(r/racksPerZone, r%racksPerZone)
	}
}

// Domains returns the distinct non-empty failure domains, sorted.
func (c *Cluster) Domains() []string {
	seen := make(map[string]bool)
	for _, n := range c.nodes {
		if n.Domain != "" {
			seen[n.Domain] = true
		}
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// NodesInDomain returns the nodes whose Domain equals domain or lives
// under it (domain "zone-0" matches "zone-0/rack-1"), in ID order. An
// empty domain matches nothing.
func (c *Cluster) NodesInDomain(domain string) []*Node {
	if domain == "" {
		return nil
	}
	var out []*Node
	for _, n := range c.nodes {
		if n.Domain == domain || strings.HasPrefix(n.Domain, domain+"/") {
			out = append(out, n)
		}
	}
	return out
}

// SiblingDomains returns the domains that share domain's parent (the
// path up to the last '/'), sorted and excluding domain itself. A
// top-level domain's siblings are all other top-level prefixes. It is
// the blast-radius set cascading failures spread into.
func (c *Cluster) SiblingDomains(domain string) []string {
	parent := ""
	if i := strings.LastIndex(domain, "/"); i >= 0 {
		parent = domain[:i+1]
	}
	seen := make(map[string]bool)
	for _, d := range c.Domains() {
		if d == domain || !strings.HasPrefix(d, parent) {
			continue
		}
		// For top-level domains compare only the first path element
		// so "zone-0/rack-1" is not a sibling of "zone-1".
		if parent == "" {
			if j := strings.Index(d, "/"); j >= 0 {
				d = d[:j]
			}
			if d == domain {
				continue
			}
		}
		seen[d] = true
	}
	out := make([]string, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// Nodes returns all nodes in ID order.
func (c *Cluster) Nodes() []*Node { return c.nodes }

// NodesOfModel returns nodes of the given model, or all nodes when
// model is empty.
func (c *Cluster) NodesOfModel(model string) []*Node {
	if model == "" {
		return c.nodes
	}
	if ix := c.byModel[model]; ix != nil {
		return ix.nodes
	}
	return nil
}

// Models lists the distinct GPU models, sorted.
func (c *Cluster) Models() []string {
	out := make([]string, 0, len(c.byModel))
	for m := range c.byModel {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// TotalGPUs returns the cluster capacity C, optionally restricted to
// one model. Down nodes contribute nothing.
func (c *Cluster) TotalGPUs(model string) float64 {
	if model == "" {
		// Integer card counts sum exactly in float64, so the
		// incremental total matches the scan bit-for-bit.
		return float64(c.upCapacity)
	}
	total := 0.0
	for _, n := range c.NodesOfModel(model) {
		if n.Down() {
			continue
		}
		total += float64(n.Capacity())
	}
	return total
}

// UsedGPUs returns currently allocated capacity, optionally
// restricted to one model.
func (c *Cluster) UsedGPUs(model string) float64 {
	if model == "" {
		return c.used.total()
	}
	u := 0.0
	for _, n := range c.NodesOfModel(model) {
		if n.Down() {
			continue
		}
		u += n.UsedGPUs()
	}
	return u
}

// IdleGPUs returns S0: idle capacity, optionally restricted to one
// model.
func (c *Cluster) IdleGPUs(model string) float64 {
	return c.TotalGPUs(model) - c.UsedGPUs(model)
}

// SpotGPUs returns capacity held by spot tasks.
func (c *Cluster) SpotGPUs(model string) float64 {
	if model == "" {
		return c.spot.total()
	}
	u := 0.0
	for _, n := range c.NodesOfModel(model) {
		if n.Down() {
			continue
		}
		u += n.SpotGPUs()
	}
	return u
}

// HPGPUs returns capacity held by HP tasks.
func (c *Cluster) HPGPUs(model string) float64 {
	if model == "" {
		return c.hp.total()
	}
	u := 0.0
	for _, n := range c.NodesOfModel(model) {
		if n.Down() {
			continue
		}
		u += n.HPGPUs()
	}
	return u
}

// allocationRate is used/total in [0,1], the paper's headline
// efficiency metric.
func (c *Cluster) allocationRate(model string) float64 {
	total := c.TotalGPUs(model)
	if total == 0 {
		return 0
	}
	return c.UsedGPUs(model) / total
}

// String implements fmt.Stringer.
func (c *Cluster) String() string {
	return fmt.Sprintf("cluster (%d nodes, %.0f GPUs, %.1f%% allocated)",
		len(c.nodes), c.TotalGPUs(""), 100*c.allocationRate(""))
}
