// Quickstart: MBE3/RI-MP2 energy and analytic gradient of a small water
// cluster through the public API, compared against the unfragmented
// supersystem (exact for three monomers), plus a few NVE AIMD steps.
package main

import (
	"fmt"
	"log"

	"github.com/fragmd/fragmd"
)

func main() {
	sys := fragmd.WaterCluster(3)
	fmt.Printf("system: %d atoms, %d electrons\n", sys.N(), sys.NumElectrons())

	frag, err := fragmd.FragmentByMolecule(sys, 3, 1, fragmd.FragmentOptions{})
	if err != nil {
		log.Fatal(err)
	}
	eval := fragmd.NewRIMP2Potential("sto-3g", false)

	fragmd.ResetGEMMFLOPs()
	res, err := frag.Compute(eval)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MBE3/RI-MP2 energy:     %.10f Ha  (%d polymers)\n", res.Energy, len(res.Terms.All()))

	eSuper, _, err := eval.Evaluate(sys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("supersystem RI-MP2:     %.10f Ha  (MBE3 is exact for 3 monomers)\n", eSuper)
	fmt.Printf("difference:             %.3e Ha\n", res.Energy-eSuper)
	fmt.Printf("GEMM FLOPs so far:      %.3e\n\n", float64(fragmd.GEMMFLOPs()))

	fmt.Println("5 steps of asynchronous NVE AIMD (0.5 fs, 150 K):")
	fmt.Printf("%6s %18s %12s\n", "step", "Etot (Ha)", "drift (µHa)")
	var e0 float64
	_, _, err = fragmd.RunAIMD(frag, eval, 150, 0.5, 5, 1, func(st fragmd.StepStats) {
		if st.Step == 0 {
			e0 = st.Etot
		}
		fmt.Printf("%6d %18.8f %12.2f\n", st.Step, st.Etot, (st.Etot-e0)*1e6)
	})
	if err != nil {
		log.Fatal(err)
	}
}
