package core

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/banksdb/banks/internal/graph"
)

// TreeEdge is one directed edge of a connection tree, pointing away from
// the root (information node) toward a keyword leaf.
type TreeEdge struct {
	From, To graph.NodeID
	W        float64
}

// Answer is one query result: a connection tree rooted at the information
// node, with a directed path from the root to a node matching each search
// term (§2). A single-node answer (a tuple matching every term) has no
// edges.
type Answer struct {
	// Root is the information node.
	Root graph.NodeID
	// Edges are the tree edges, directed away from the root. Edges shared
	// between root-to-leaf paths appear once.
	Edges []TreeEdge
	// TermNodes[i] is the node that matched search term i.
	TermNodes []graph.NodeID
	// Weight is the sum of edge weights (the §2.1 tree weight).
	Weight float64
	// EScore, NScore and Score are the §2.3 relevance components.
	EScore, NScore, Score float64
	// Rank is the 1-based position in the emitted result list.
	Rank int
}

// Nodes returns the distinct nodes of the tree, root first.
func (a *Answer) Nodes() []graph.NodeID {
	seen := map[graph.NodeID]bool{a.Root: true}
	out := []graph.NodeID{a.Root}
	add := func(n graph.NodeID) {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, e := range a.Edges {
		add(e.From)
		add(e.To)
	}
	for _, n := range a.TermNodes {
		add(n)
	}
	return out
}

// ContainsNode reports whether n is part of the tree.
func (a *Answer) ContainsNode(n graph.NodeID) bool {
	if a.Root == n {
		return true
	}
	for _, e := range a.Edges {
		if e.From == n || e.To == n {
			return true
		}
	}
	return false
}

// Signature is the canonical identity of the tree *modulo edge direction*:
// the paper treats trees whose undirected versions coincide as duplicates
// ("they represent the same result, except with different information
// nodes"). Two answers with equal signatures are the same result.
func (a *Answer) Signature() string {
	if len(a.Edges) == 0 {
		return "n" + strconv.Itoa(int(a.Root))
	}
	und := make([]string, len(a.Edges))
	for i, e := range a.Edges {
		lo, hi := e.From, e.To
		if lo > hi {
			lo, hi = hi, lo
		}
		und[i] = strconv.Itoa(int(lo)) + "-" + strconv.Itoa(int(hi))
	}
	sort.Strings(und)
	return strings.Join(und, ",")
}

// sigHash is the integer form of Signature used on the hot path: a 64-bit
// order-independent hash of the undirected edge set (of the root alone for
// edgeless answers). Commutative combination over per-edge mixes makes
// sorting unnecessary; a collision would merge two distinct trees, with
// probability ~2^-64 per candidate pair — negligible against the few
// thousand candidates a query generates.
func (a *Answer) sigHash() uint64 {
	if len(a.Edges) == 0 {
		return mix64(uint64(uint32(a.Root)) | 1<<40)
	}
	h := mix64(uint64(len(a.Edges)))
	for _, e := range a.Edges {
		lo, hi := e.From, e.To
		if lo > hi {
			lo, hi = hi, lo
		}
		h += mix64(uint64(uint32(lo))<<32 | uint64(uint32(hi)))
	}
	return h
}

// mix64 is the splitmix64 finalizer: a cheap bijective mixer with good
// avalanche behaviour.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// String renders a compact representation for logs and tests.
func (a *Answer) String() string {
	return fmt.Sprintf("answer{root=%d edges=%d w=%.3g score=%.4f}", a.Root, len(a.Edges), a.Weight, a.Score)
}

// Describe renders the tree as an indented listing using the graph's table
// names; the richer rendering with attribute values lives in the public
// banks package, which has database access.
func (a *Answer) Describe(g graph.View) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%d] (score %.4f)\n", g.TableNameOf(a.Root), g.RIDOf(a.Root), a.Score)
	children := make(map[graph.NodeID][]TreeEdge)
	for _, e := range a.Edges {
		children[e.From] = append(children[e.From], e)
	}
	var walk func(n graph.NodeID, depth int)
	walk = func(n graph.NodeID, depth int) {
		for _, e := range children[n] {
			fmt.Fprintf(&b, "%s-> %s[%d] (w=%.3g)\n", strings.Repeat("  ", depth+1), g.TableNameOf(e.To), g.RIDOf(e.To), e.W)
			walk(e.To, depth+1)
		}
	}
	walk(a.Root, 0)
	return b.String()
}
