package certify_test

import (
	"fmt"
	"log"

	"rlnc/internal/certify"
	"rlnc/internal/graph"
	"rlnc/internal/ids"
	"rlnc/internal/lang"
)

// ExampleAMOSScheme certifies a legal amos configuration and shows that
// an illegal one cannot be certified even by the honest prover.
func ExampleAMOSScheme() {
	g := graph.Path(8)
	y := make([][]byte, 8)
	for v := range y {
		y[v] = lang.EncodeSelected(v == 3)
	}
	di := &lang.DecisionInstance{G: g, X: lang.EmptyInputs(8), Y: lang.ColumnOf(y), ID: ids.Consecutive(8)}
	ok, err := certify.Completeness(di, certify.AMOSScheme{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("one selected, certified:", ok)

	y[6] = lang.EncodeSelected(true) // second selection: now illegal
	di.Y = lang.ColumnOf(y)
	_, err = (certify.AMOSScheme{}).Prove(di)
	fmt.Println("two selected, prover refuses:", err != nil)
	// Output:
	// one selected, certified: true
	// two selected, prover refuses: true
}
