// Fuzzing walks the full compiler-testing workflow of Fig. 5 of the paper
// on the sampling program (Fig. 1): a compiler-produced machine code
// program and a high-level Domino specification receive the same random
// input trace, and the output traces are compared.
//
// The example then injects a compiler bug — the sampling period constant is
// miscompiled from 9 to 8 — and shows the fuzzer catching the mismatch.
package main

import (
	"fmt"
	"log"

	"druzhba/internal/core"
	"druzhba/internal/domino"
	"druzhba/internal/phv"
	"druzhba/internal/sim"
	"druzhba/internal/spec"
)

func main() {
	bench, err := spec.Lookup("sampling")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("high-level program (Domino):")
	fmt.Println(bench.DominoSrc)

	// The "compiler output": machine code for the 2x1 if_else_raw pipeline.
	code, err := bench.MachineCode()
	if err != nil {
		log.Fatal(err)
	}
	hw, err := bench.Spec()
	if err != nil {
		log.Fatal(err)
	}
	pipeline, err := core.Build(hw, code, core.SCCInlining)
	if err != nil {
		log.Fatal(err)
	}

	// The specification: the Domino program, compiled to closures.
	prog, err := bench.DominoProgram()
	if err != nil {
		log.Fatal(err)
	}
	target, err := domino.NewPHVSpec(prog, bench.Fields, phv.Default32)
	if err != nil {
		log.Fatal(err)
	}
	containers, err := bench.CompareContainers()
	if err != nil {
		log.Fatal(err)
	}

	report, err := sim.FuzzRandom(pipeline, target, 7, 50000, 0, sim.FuzzOptions{Containers: containers})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("correct machine code:", report)

	// Now the buggy compiler: the sampling period lands as 8 instead of 9.
	buggy := code.Clone()
	buggy.Set("pipeline_stage_0_stateful_alu_0_const_0", 8)
	buggyPipe, err := core.Build(hw, buggy, core.SCCInlining)
	if err != nil {
		log.Fatal(err)
	}
	report, err = sim.FuzzRandom(buggyPipe, target, 7, 50000, 0, sim.FuzzOptions{Containers: containers})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("buggy machine code:  ", report)
	if report.Passed {
		log.Fatal("the fuzzer failed to catch the injected bug")
	}
	fmt.Println("\nthe injected miscompilation was caught by trace comparison")
}
