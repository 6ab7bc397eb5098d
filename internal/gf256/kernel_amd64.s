#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func mulAddRowsAVX2(tab *[256][32]byte, coeffs []byte, srcs [][]byte, dst []byte)
//
// dst[i] ^= Σ_j coeffs[j]*srcs[j][i] for i < len(dst)&^31. Every
// coefficient is non-zero and len(coeffs) == len(srcs) >= 1. The
// destination blocks stay in registers (Y0 and Y5, 64 bytes, then Y0
// alone for a last 32) across all terms, so dst is read and written once
// per block; each term costs one source load per 32 bytes and two
// VPSHUFB lookups (Plank, Greenan & Miller, FAST 2013), with the term's
// two 16-byte nibble tables broadcast once per 64 bytes.
//
// Registers: R8 tab, SI coeffs, R9 term count, R10 srcs, DI dst,
// CX 32-byte blocks left, R11 block offset, BX term index, R12 srcs
// cursor, R13 source address, Y15 the low-nibble mask.
TEXT ·mulAddRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ tab+0(FP), R8
	MOVQ coeffs_base+8(FP), SI
	MOVQ coeffs_len+16(FP), R9
	MOVQ srcs_base+32(FP), R10
	MOVQ dst_base+56(FP), DI
	MOVQ dst_len+64(FP), CX
	SHRQ $5, CX
	JZ   done
	MOVQ $15, AX
	MOVQ AX, X15
	VPBROADCASTB X15, Y15
	XORQ R11, R11

pair:
	CMPQ    CX, $2
	JB      single
	VMOVDQU (DI)(R11*1), Y0
	VMOVDQU 32(DI)(R11*1), Y5
	XORQ    BX, BX
	MOVQ    R10, R12

pairterm:
	MOVBQZX        (SI)(BX*1), AX
	SHLQ           $5, AX
	VBROADCASTI128 (R8)(AX*1), Y1   // c * low nibble, both lanes
	VBROADCASTI128 16(R8)(AX*1), Y2 // c * high nibble, both lanes
	MOVQ           (R12), R13       // srcs[j] base
	ADDQ           R11, R13
	VMOVDQU        (R13), Y3
	VMOVDQU        32(R13), Y6
	VPSRLQ         $4, Y3, Y4
	VPSRLQ         $4, Y6, Y7
	VPAND          Y15, Y3, Y3
	VPAND          Y15, Y4, Y4
	VPAND          Y15, Y6, Y6
	VPAND          Y15, Y7, Y7
	VPSHUFB        Y3, Y1, Y3
	VPSHUFB        Y4, Y2, Y4
	VPSHUFB        Y6, Y1, Y6
	VPSHUFB        Y7, Y2, Y7
	VPXOR          Y3, Y0, Y0
	VPXOR          Y4, Y0, Y0
	VPXOR          Y6, Y5, Y5
	VPXOR          Y7, Y5, Y5
	ADDQ           $24, R12         // next slice header
	INCQ           BX
	CMPQ           BX, R9
	JB             pairterm

	VMOVDQU Y0, (DI)(R11*1)
	VMOVDQU Y5, 32(DI)(R11*1)
	ADDQ    $64, R11
	SUBQ    $2, CX
	JMP     pair

single:
	TESTQ   CX, CX
	JZ      end
	VMOVDQU (DI)(R11*1), Y0
	XORQ    BX, BX
	MOVQ    R10, R12

singleterm:
	MOVBQZX        (SI)(BX*1), AX
	SHLQ           $5, AX
	VBROADCASTI128 (R8)(AX*1), Y1
	VBROADCASTI128 16(R8)(AX*1), Y2
	MOVQ           (R12), R13
	VMOVDQU        (R13)(R11*1), Y3
	VPSRLQ         $4, Y3, Y4
	VPAND          Y15, Y3, Y3
	VPAND          Y15, Y4, Y4
	VPSHUFB        Y3, Y1, Y3
	VPSHUFB        Y4, Y2, Y4
	VPXOR          Y3, Y0, Y0
	VPXOR          Y4, Y0, Y0
	ADDQ           $24, R12
	INCQ           BX
	CMPQ           BX, R9
	JB             singleterm
	VMOVDQU        Y0, (DI)(R11*1)

end:
	VZEROUPPER

done:
	RET
