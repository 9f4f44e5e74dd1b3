#include "textflag.h"

// func prefetchLine(p unsafe.Pointer)
TEXT ·prefetchLine(SB), NOSPLIT|NOFRAME, $0-8
	MOVQ	p+0(FP), AX
	PREFETCHT0	(AX)
	RET
