// Package datagen builds the deterministic synthetic datasets the
// reproduction is evaluated on. The paper used a DBLP extract (~100K
// nodes/~300K edges) and the IIT Bombay thesis database; neither is
// distributed, so these generators recreate the schemas, the scale, the
// skew (Zipfian authorship and citations), and — crucially — the specific
// entities behind every anecdote in Section 5.1, so the qualitative results
// can be checked mechanically.
package datagen

import (
	"math"
	"math/rand"

	"github.com/banksdb/banks/internal/index"
)

// Name pools. None of these tokens collide with the seeded anecdote
// keywords (mohan, gray, soumen, sunita, byron, seltzer, stonebraker,
// sudarshan, aditya, transaction), so queries about the anecdotes match
// only the intended entities plus deliberately seeded distractors.
var firstNames = []string{
	"Alan", "Barbara", "Carlos", "Diana", "Erik", "Fatima", "Giorgio",
	"Helena", "Ivan", "Julia", "Kenji", "Laura", "Miguel", "Nadia",
	"Oscar", "Petra", "Quentin", "Rosa", "Stefan", "Tanya", "Umberto",
	"Vera", "Walter", "Xenia", "Yusuf", "Zelda", "Andre", "Bianca",
	"Claus", "Dorothea", "Emil", "Frieda", "Gustav", "Hannelore",
	"Igor", "Jasmine", "Karl", "Lena", "Marco", "Nina", "Otto",
	"Paula", "Rainer", "Sofia", "Theo", "Ursula", "Viktor", "Wanda",
}

var lastNames = []string{
	"Albrecht", "Bergstrom", "Castellano", "Dietrich", "Eriksson",
	"Fontaine", "Giordano", "Hoffmann", "Ivanov", "Jansen", "Kowalski",
	"Lindqvist", "Moreau", "Nakamura", "Olsen", "Petrov", "Quintana",
	"Rossi", "Schneider", "Takahashi", "Ullman2", "Vasquez", "Weber",
	"Xavier", "Yamamoto", "Zimmermann", "Andersen", "Bianchi", "Cortez",
	"Dubois", "Engel", "Ferrari", "Gruber", "Hansen", "Iversen",
	"Jensen", "Keller", "Larsen", "Moretti", "Nielsen", "Oliveira",
	"Pedersen", "Richter", "Santos", "Tanaka", "Urbanek", "Vogel",
	"Wagner",
}

var titleWords = []string{
	"adaptive", "aggregation", "algebra", "algorithms", "analysis",
	"approximate", "architectures", "association", "benchmarking",
	"bitmap", "buffering", "caching", "classification", "clustering",
	"columnar", "compression", "concurrent", "constraints", "cost",
	"cube", "data", "decision", "declarative", "deductive", "design",
	"dimensional", "distributed", "dynamic", "efficient", "estimation",
	"evaluation", "execution", "extensible", "federated", "filtering",
	"frequent", "graphs", "hashing", "heterogeneous", "hierarchical",
	"incremental", "indexing", "integration", "intelligent", "joins",
	"knowledge", "languages", "learning", "locking", "maintenance",
	"materialized", "memory", "metadata", "mining", "models",
	"multidimensional", "networks", "normalization", "object",
	"on-line", "optimization", "parallel", "partitioning", "patterns",
	"performance", "persistent", "physical", "placement", "planning",
	"predicates", "processing", "profiles", "protocols", "quality",
	"queries", "ranking", "recovery", "relational", "replication",
	"rules", "sampling", "scalable", "schemas", "selectivity",
	"semantics", "semistructured", "sequences", "sharing", "similarity",
	"spatial", "statistics", "storage", "streams", "structures",
	"summarization", "support", "systems", "temporal", "tuning",
	"updates", "views", "visualization", "warehousing", "workloads",
}

// randomName draws "First Last" from the pools.
func randomName(rng *rand.Rand) string {
	return firstNames[rng.Intn(len(firstNames))] + " " + lastNames[rng.Intn(len(lastNames))]
}

// randomTitle draws a 3..3+span word title.
func randomTitle(rng *rand.Rand, span int) string {
	n := 3 + rng.Intn(span)
	out := make([]byte, 0, 12*n)
	for i := 0; i < n; i++ {
		w := titleWords[rng.Intn(len(titleWords))]
		if i > 0 {
			out = append(out, ' ')
		}
		out = append(out, w...)
	}
	return string(out)
}

// zipfIndex draws an index in [0,n) with a Zipf-ish bias toward small
// indices (exponent ~1), giving the skewed authorship and citation
// distributions real bibliographies show.
func zipfIndex(rng *rand.Rand, n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF of 1/x on [1, n+1).
	u := rng.Float64()
	x := math.Pow(float64(n+1), u)
	i := int(x) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// TitleWords returns the paper-title vocabulary the generators draw from;
// benchmark and evaluation harnesses use it to synthesize keyword
// workloads whose terms are guaranteed to hit the index.
func TitleWords() []string { return titleWords }

// ZipfTerms returns an n-draw Zipf(s=1.3) term stream over the
// single-token title vocabulary — the shared skewed workload behind the
// match-cache benchmark and the store's budgeted-cache test, defined once
// so both always measure the same distribution.
// Multi-token vocabulary words ("on-line") are excluded: as single search
// terms their prefixes match nothing.
func ZipfTerms(n int, seed int64) []string {
	var words []string
	for _, w := range titleWords {
		if len(index.Tokenize(w)) == 1 {
			words = append(words, w)
		}
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.3, 1, uint64(len(words)-1))
	out := make([]string, n)
	for i := range out {
		out[i] = words[zipf.Uint64()]
	}
	return out
}
