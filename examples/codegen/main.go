// Codegen: prints an auto-generated micro-kernel at each optimization
// stage of §III — the basic Listing-1 kernel, then with rotating
// register allocation — and shows how the pipeline cycle counts respond,
// reproducing the paper's Fig 3 narrative on the didactic machine.
package main

import (
	"fmt"
	"log"

	"autogemm"
	"autogemm/internal/hw"
	"autogemm/internal/mkernel"
	"autogemm/internal/perfmodel"
)

func main() {
	eng, err := autogemm.New("KP920")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== basic generated micro-kernel 5x16, kc=8 (Listing 1) ===")
	asm, err := eng.Kernel(5, 16, 8, false, autogemm.KernelAsm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(asm)

	fmt.Println("\n=== with rotating register allocation (§III-C1) ===")
	asm, err = eng.Kernel(5, 16, 8, true, autogemm.KernelAsm)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(asm)

	// Projected cycles on the didactic machine of Fig 3 (L=8, IPC=1).
	p := perfmodel.FromChip(hw.Didactic())
	p.Launch = 0
	fmt.Println("\n=== projected cycles, didactic machine (L=8, IPC=1) ===")
	for _, tile := range []mkernel.Tile{{MR: 5, NR: 16}, {MR: 2, NR: 16}} {
		for _, kc := range []int{16, 64} {
			basic := p.TileTime(tile, kc, perfmodel.Opt{})
			rot := p.TileTime(tile, kc, perfmodel.Opt{Rotate: true})
			fmt.Printf("tile %-5v kc=%-3d basic=%6.0f rotated=%6.0f (%.1f%% faster)\n",
				tile, kc, basic, rot, 100*(basic/rot-1))
		}
	}
	fmt.Println("\npaper closed forms: 5x16 = 20·k_c + 13·⌊k̂_c⌋ + 65;" +
		" 2x16 main loop 48·⌊k̂_c⌋ -> 42·⌊k̂_c⌋ with rotation")
}
