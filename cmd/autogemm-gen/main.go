// Command autogemm-gen prints auto-generated micro-kernels (the output
// of the paper's Listing 1 generator) for inspection:
//
//	autogemm-gen -chip KP920 -mr 5 -nr 16 -kc 32 -rotate
package main

import (
	"flag"
	"fmt"
	"os"

	"autogemm"
)

func main() {
	chip := flag.String("chip", "KP920", "chip model (see -chips)")
	mr := flag.Int("mr", 5, "register tile rows m_r")
	nr := flag.Int("nr", 16, "register tile columns n_r (multiple of the SIMD width)")
	kc := flag.Int("kc", 32, "accumulation depth k_c")
	rotate := flag.Bool("rotate", false, "apply rotating register allocation (§III-C1)")
	sfile := flag.Bool("s", false, "emit a complete GNU assembler .S file (AAPCS64 wrapper)")
	binary := flag.Bool("bin", false, "emit encoded AArch64 machine words")
	info := flag.Bool("info", false, "print the kernel's instruction mix and AI report")
	chips := flag.Bool("chips", false, "list chip models and exit")
	flag.Parse()

	if *chips {
		for _, c := range autogemm.Chips() {
			fmt.Println(c)
		}
		return
	}
	eng, err := autogemm.New(*chip)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	format := autogemm.KernelAsm
	switch {
	case *info:
		format = autogemm.KernelInfo
	case *sfile:
		format = autogemm.KernelS
	case *binary:
		format = autogemm.KernelWords
	}
	out, err2 := eng.Kernel(*mr, *nr, *kc, *rotate, format)
	if err2 != nil {
		fmt.Fprintln(os.Stderr, err2)
		os.Exit(1)
	}
	fmt.Print(out)
}
