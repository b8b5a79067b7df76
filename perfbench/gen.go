package main

import (
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sort"
	"strings"

	"turnstile/internal/corpus"
)

// The seeded workload generator. Every input the program receives is a
// pure function of the --seed value; the benchmark never feeds the
// program anything else.

// newRng returns the generator of one named input stream of a seed.
func newRng(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// deployInput is one core.Manage call of the deploy workload.
type deployInput struct {
	name   string
	files  map[string]string
	policy string
	bytes  int
}

// genPerBlock is how many generated apps each deploy block holds next to
// the 27 deployable corpus apps: a multiple of the seven generator strata
// (GenCorpus assigns them round-robin), so every block has the same mix.
// The proportion keeps both reported quantiles in the middle of one app's
// deploy times rather than on a cliff between two: generated apps are 44%
// of the deploys, so p50 lies on one of the smaller corpus apps, whose
// source does not depend on the seed, and the largest app (modbus) is 2.1%,
// so p99 lies near the middle of its deploy times.
const genPerBlock = 21

// deployBlock builds block b of the deploy workload: every deployable
// corpus app once plus genPerBlock generated apps, in seeded order. Each
// app's entry file gets a unique trailing declaration, so no source text
// repeats anywhere in a run (generated apps alone can: some strata emit
// the same text for different seeds) and a deploy cache keyed on the
// source, its tokens or its AST never hits. Appending at the end keeps
// every line number, and so every line-keyed policy, unchanged.
func deployBlock(seed uint64, b int, apps []*corpus.App) ([]deployInput, error) {
	r := newRng(seed, fmt.Sprintf("deploy-block-%d", b))
	gens, err := corpus.GenCorpus(genPerBlock, r.Uint64())
	if err != nil {
		return nil, fmt.Errorf("generating deploy block %d: %w", b, err)
	}
	out := make([]deployInput, 0, len(apps)+len(gens))
	add := func(name, entry string, files map[string]string, policy string) {
		in := deployInput{name: name, files: make(map[string]string, len(files)), policy: policy}
		for n, src := range files {
			if n == entry {
				src = fmt.Sprintf("%s\nvar deployNonce = \"%016x\";\n", src, r.Uint64())
			}
			in.files[n] = src
			in.bytes += len(src)
		}
		out = append(out, in)
	}
	for _, a := range apps {
		add(a.Name, a.Name+".js", map[string]string{a.Name + ".js": a.Source}, a.PolicyJSON)
	}
	for _, g := range gens {
		add(g.Name, g.EntryFile(), g.Files, g.Policy)
	}
	for i := len(out) - 1; i > 0; i-- {
		j := r.IntN(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out, nil
}

// sourceKey hashes an app's files (names and text) for the uniqueness
// and repeat assertions.
func sourceKey(files map[string]string) [32]byte {
	names := make([]string, 0, len(files))
	for n := range files {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		fmt.Fprintf(h, "%d:%s%d:%s", len(n), n, len(files[n]), files[n])
	}
	var k [32]byte
	copy(k[:], h.Sum(nil))
	return k
}

// streamPayload draws frame msg for the stream workload in the corpus
// apps' "person<id>:E<k>|..." format: one to three records, each marked
// secret ("E", which the placeholder policy's labeller maps to Alpha) with
// probability one half, under four-digit ids. The record count cycles
// through a seeded permutation of 1..3 every three frames, so each count
// has the same share in every run; the ids keep one width, so frames do
// not grow as a run goes on.
func streamPayload(r *rand.Rand, perm *[3]int, msg int) string {
	if msg%3 == 0 {
		*perm = [3]int{1, 2, 3}
		for i := 2; i > 0; i-- {
			j := r.IntN(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	var b strings.Builder
	for p := 0; p < perm[msg%3]; p++ {
		if p > 0 {
			b.WriteByte('|')
		}
		fmt.Fprintf(&b, "person%d:", 1000+r.IntN(9000))
		if r.IntN(2) == 0 {
			fmt.Fprintf(&b, "E%d", r.IntN(97))
		}
	}
	return b.String()
}

// serveApps are the corpus apps the serve fleet hosts, tenantsPerApp
// tenants each. The set is fixed so every seed runs the same per-message
// cost mix; the seed varies the arrival traces and payloads. Three apps of
// clearly different per-message cost, with equal traffic, put the fleet's
// median commit inside the middle app's commits instead of on the edge
// between two apps.
var serveApps = []string{"sensor-logger", "camera-archiver", "smart-meter"}

const tenantsPerApp = 3
