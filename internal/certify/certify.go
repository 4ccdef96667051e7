// Package certify implements local verification with certificates — the
// classes NLD and BPNLD that §5 of the paper singles out as candidates
// for extending Theorem 1 ("the classes of languages for which one can
// certify the membership ... thanks to local certificates. They are to LD
// and BPLD, respectively, what NP is to P").
//
// A proof-labeling scheme for a language L equips every node with a
// certificate string; a constant-radius verifier checks certificates
// locally such that
//
//   - completeness: for every configuration in L some certificate
//     assignment makes all nodes accept, and
//   - soundness: for configurations outside L, every certificate
//     assignment makes at least one node reject.
//
// The package provides the scheme interface, a checker that tests
// completeness directly and soundness empirically (adversarial
// certificate search), and two concrete schemes:
//
//   - AMOSScheme certifies the language amos — which is NOT in LD (see
//     experiment E9) but IS in NLD via distance certificates, exhibiting
//     LD ⊊ NLD exactly as the paper's discussion anticipates;
//   - SpanningTreeScheme certifies "the marked edges form a spanning
//     tree", the classic example of proof labeling [20].
//
// The §5 obstacle the paper describes — certificates "may change
// radically" when instances are glued — is directly visible here: the
// AMOS certificates are global distance counters, exactly the kind of
// information that gluing invalidates.
package certify

import (
	"encoding/binary"
	"fmt"
	"slices"

	"rlnc/internal/lang"
	"rlnc/internal/local"
	"rlnc/internal/localrand"
)

// Certificates assigns one certificate string per node.
type Certificates [][]byte

// Scheme is a proof-labeling scheme: a prover (certificate constructor)
// plus a local verifier.
type Scheme interface {
	Name() string
	// Radius is the verifier's view radius.
	Radius() int
	// Prove produces certificates for a configuration believed to be in
	// the language; for configurations outside the language it may
	// return anything (soundness quantifies over all certificates).
	Prove(di *lang.DecisionInstance) (Certificates, error)
	// Verify is the per-node verdict; the certificate of ball-local node
	// i is certs[i] (indexed like the view).
	Verify(v *local.View, certs [][]byte) bool
}

// VerifyAll runs the verifier at every node with the given certificates
// and returns the conjunction (acceptance, §2.2.1 style).
func VerifyAll(di *lang.DecisionInstance, s Scheme, certs Certificates) bool {
	return verifier(di, s)(certs)
}

// verifier returns VerifyAll for one configuration. Its width-1 batch
// caches the balls and view skeletons, so repeated calls — the attempts
// of SoundnessSearch — extract the balls once and reuse each node's
// certificate row.
func verifier(di *lang.DecisionInstance, s Scheme) func(Certificates) bool {
	n := di.G.N()
	bt := local.MustPlan(di.G).NewBatch(1)
	dis := []*lang.DecisionInstance{di}
	ok := make([]bool, n)
	rows := make([][][]byte, n) // rows[v] holds node v's certificates, indexed like its view
	return func(certs Certificates) bool {
		if len(certs) != n {
			return false
		}
		if err := bt.ForEachDecisionViews(dis, s.Radius(), nil, func(_, v int, view *local.View) {
			rows[v] = rows[v][:0]
			for _, u := range view.Ball.Nodes {
				rows[v] = append(rows[v], certs[u])
			}
			ok[v] = s.Verify(view, rows[v])
		}); err != nil {
			panic(err.Error())
		}
		return !slices.Contains(ok, false)
	}
}

// Completeness checks that the prover's certificates are accepted on a
// configuration known to be in the language.
func Completeness(di *lang.DecisionInstance, s Scheme) (bool, error) {
	certs, err := s.Prove(di)
	if err != nil {
		return false, err
	}
	return VerifyAll(di, s, certs), nil
}

// SoundnessSearch attacks a configuration OUTSIDE the language with
// `attempts` random certificate assignments (plus the prover's own
// output) of up to maxLen bytes per node, reporting the first assignment
// that fools the verifier, if any. A nil return means the verifier
// survived the search — empirical evidence of soundness, not a proof.
func SoundnessSearch(di *lang.DecisionInstance, s Scheme, attempts, maxLen int, seed uint64) (Certificates, error) {
	verify := verifier(di, s)
	// The prover's own certificates must not fool the verifier either.
	if certs, err := s.Prove(di); err == nil {
		if verify(certs) {
			return certs, nil
		}
	}
	src := localrand.NewSource(seed)
	n := di.G.N()
	for a := 0; a < attempts; a++ {
		certs := make(Certificates, n)
		for v := 0; v < n; v++ {
			l := src.Intn(maxLen + 1)
			c := make([]byte, l)
			for i := range c {
				c[i] = byte(src.Intn(256))
			}
			certs[v] = c
		}
		if verify(certs) {
			return certs, nil
		}
	}
	return nil, nil
}

// Helpers shared by the schemes: certificates carry small unsigned
// integers in fixed 4-byte big-endian form.
func encodeU32(x uint32) []byte {
	out := make([]byte, 4)
	binary.BigEndian.PutUint32(out, x)
	return out
}

func decodeU32(c []byte) (uint32, bool) {
	if len(c) != 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(c), true
}

// ErrNotInLanguage is returned by provers asked to certify a
// configuration outside their language.
var ErrNotInLanguage = fmt.Errorf("certify: configuration not in the language")
