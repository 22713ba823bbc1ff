package cluster

// Deterministic merge of per-partition answer lists. Partitions hold
// disjoint node sets, so no tree can arrive twice and the merge is pure
// selection: take the global top-k under a total order. When only one
// partition contributed, its list passes through verbatim — emission
// order (the engine's approximate-relevance order) preserved — which is
// what makes a 1-partition distributed query byte-identical to the
// single-engine search. With several contributors there is no global
// emission sequence to preserve, so answers sort by (score desc, then
// the canonical (table, rid) answer key), the same tie-break vocabulary
// the engine's emitter uses, making the merged order independent of
// partition count, scatter timing and node numbering.

import (
	"math"
	"sort"
)

// ridMask packs a RID into the low 48 bits of an answer key, mirroring
// the engine's nodeKey packing.
const ridMask = (uint64(1) << 48) - 1

// refKey is the wire-side analogue of the engine's canonical nodeKey:
// (table id << 48) | rid. Unknown tables (never the case for answers
// from a well-formed partition) sort last.
func refKey(tids map[string]int32, r Ref) uint64 {
	tid, ok := tids[lowerASCII(r.Table)]
	if !ok {
		return math.MaxUint64
	}
	return uint64(tid)<<48 | uint64(r.RID)&ridMask
}

func lowerASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			b := []byte(s)
			for j := i; j < len(b); j++ {
				if b[j] >= 'A' && b[j] <= 'Z' {
					b[j] += 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return s
}

// MergeAnswers folds per-partition answer lists into the global top-k
// with ranks reassigned 1..k.
func MergeAnswers(tids map[string]int32, lists [][]Answer, topK int) []Answer {
	var nonEmpty [][]Answer
	for _, l := range lists {
		if len(l) > 0 {
			nonEmpty = append(nonEmpty, l)
		}
	}
	if len(nonEmpty) == 0 {
		return nil
	}
	var merged []Answer
	if len(nonEmpty) == 1 {
		merged = append(merged, nonEmpty[0]...)
	} else {
		for _, l := range nonEmpty {
			merged = append(merged, l...)
		}
		sort.SliceStable(merged, func(i, j int) bool {
			return answerLess(tids, &merged[i], &merged[j])
		})
	}
	if topK > 0 && len(merged) > topK {
		merged = merged[:topK]
	}
	for i := range merged {
		merged[i].Rank = i + 1
	}
	return merged
}

// answerLess is the total order of the multi-partition merge: score
// descending, then canonical root key, then the canonical edge sequence
// (each partition already emits edges in canonical (table, rid) order),
// then the term-node sequence.
func answerLess(tids map[string]int32, a, b *Answer) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	ka, kb := refKey(tids, a.Root), refKey(tids, b.Root)
	if ka != kb {
		return ka < kb
	}
	if len(a.Edges) != len(b.Edges) {
		return len(a.Edges) < len(b.Edges)
	}
	for i := range a.Edges {
		ea, eb := &a.Edges[i], &b.Edges[i]
		if fa, fb := refKey(tids, ea.From), refKey(tids, eb.From); fa != fb {
			return fa < fb
		}
		if ta, tb := refKey(tids, ea.To), refKey(tids, eb.To); ta != tb {
			return ta < tb
		}
		if ea.W != eb.W {
			return ea.W < eb.W
		}
	}
	if len(a.TermNodes) != len(b.TermNodes) {
		return len(a.TermNodes) < len(b.TermNodes)
	}
	for i := range a.TermNodes {
		if ta, tb := refKey(tids, a.TermNodes[i]), refKey(tids, b.TermNodes[i]); ta != tb {
			return ta < tb
		}
	}
	return false
}

// MergeStats folds per-partition statistics into the cluster-level view:
// additive counters sum, flags OR, and — when partitions disagree on
// active terms (possible with dropped terms) — MatchedNodes re-derives
// per term by name. A single contributor passes through verbatim (the
// 1-partition golden-parity path). The routing fields are the caller's.
func MergeStats(results []Stats, cleanTerms []string) Stats {
	if len(results) == 1 {
		return results[0]
	}
	var out Stats
	sameTerms := true
	for _, st := range results {
		out.Pops += st.Pops
		out.Generated += st.Generated
		out.Duplicates += st.Duplicates
		out.SingleChildRoots += st.SingleChildRoots
		out.ExcludedRoots += st.ExcludedRoots
		out.MetadataTruncated = out.MetadataTruncated || st.MetadataTruncated
		out.CombosTruncated = out.CombosTruncated || st.CombosTruncated
		out.TermsDropped += st.TermsDropped
		out.ArcsScanned += st.ArcsScanned
		out.BytesFaulted += st.BytesFaulted
		out.Retired += st.Retired
		if st.BudgetExhausted && !out.BudgetExhausted {
			out.BudgetExhausted = true
			out.BudgetReason = st.BudgetReason
		}
		if len(st.Terms) != len(cleanTerms) {
			sameTerms = false
		} else {
			for i, t := range st.Terms {
				if t != cleanTerms[i] {
					sameTerms = false
					break
				}
			}
		}
	}
	out.Terms = cleanTerms
	if sameTerms && len(results) > 0 {
		out.MatchedNodes = make([]int, len(cleanTerms))
		for _, st := range results {
			for i, n := range st.MatchedNodes {
				if i < len(out.MatchedNodes) {
					out.MatchedNodes[i] += n
				}
			}
		}
	} else {
		// Partitions dropped different terms; re-derive by term name.
		sums := make(map[string]int)
		for _, st := range results {
			for i, t := range st.Terms {
				if i < len(st.MatchedNodes) {
					sums[t] += st.MatchedNodes[i]
				}
			}
		}
		for _, t := range cleanTerms {
			out.MatchedNodes = append(out.MatchedNodes, sums[t])
		}
	}
	return out
}
