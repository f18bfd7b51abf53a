; name: call-clobbers-pool-register
; recipe: {"seed":6001509,"gen":{"segments":11,"maxDepth":2,"regs":6,"withCalls":true},"regs":6,"withCalls":true,"dataSeed":12254773214366624615,"initSeed":2396948996573265291,"segments":[{"kind":0,"seed":9239233522342449734,"n":1},{"kind":0,"seed":17646447931757250246,"n":2},{"kind":0,"seed":4687888662650760634,"n":4},{"kind":0,"seed":5251318574661806290,"n":2},{"kind":2,"seed":7909729890323790466,"body":[{"kind":3,"seed":2059948469011083463,"n":1,"body":[{"kind":4,"seed":2864963384879818962}]}],"else":[{"kind":1,"seed":7553987384999354305,"n":3}]},{"kind":0,"seed":1942454231732039497,"n":1},{"kind":3,"seed":15318193751674966187,"n":2,"body":[{"kind":2,"seed":10666891373321319990,"body":[{"kind":4,"seed":2340398742299230224}]}]},{"kind":3,"seed":8103589745771558498,"n":1,"body":[{"kind":0,"seed":10385078946086178840,"n":5}]},{"kind":1,"seed":12245774242445830643,"n":1}]}
; note: minimized boostfuzz finding (seed 6001509): after register
; note: allocation leaf writes a pool register that main reads on
; note: the far side of an off-trace call; the equivalence shortcut
; note: moved that read above the call while calls counted as
; note: writing only RV and RA (align-fault at 0x193 on every
; note: register-allocated static model).
.byte 147 1 0 0 98 254 255 255 36 255 255 255 232 254 255 255
.byte 160 255 255 255 229 254 255 255 188 0 0 0 59 0 0 0
.byte 46 0 0 0 159 255 255 255 32 254 255 255 196 0 0 0
.byte 139 1 0 0 94 0 0 0 246 0 0 0 87 1 0 0
.byte 3 0 0 0 141 254 255 255 62 0 0 0 109 255 255 255
.byte 42 0 0 0 137 255 255 255 30 255 255 255 155 1 0 0
.byte 53 1 0 0 201 254 255 255 47 255 255 255 111 255 255 255
.byte 203 255 255 255 145 1 0 0 210 254 255 255 69 254 255 255
.byte 135 254 255 255 38 254 255 255 202 254 255 255 35 254 255 255
.byte 117 1 0 0 149 0 0 0 145 255 255 255 238 1 0 0
.byte 28 254 255 255 75 254 255 255 207 1 0 0 53 254 255 255
.byte 94 254 255 255 125 254 255 255 213 254 255 255 82 254 255 255
.byte 160 255 255 255 205 1 0 0 222 0 0 0 163 255 255 255
.byte 45 254 255 255 64 0 0 0 104 255 255 255 85 254 255 255
.byte 0 0 0 0 17 254 255 255 196 1 0 0 43 1 0 0
.byte 149 254 255 255 37 255 255 255 130 255 255 255 165 1 0 0
.proc leaf
B0.entry: ;entry
	lui v0, 1
	lw v0, 0(v0)
	add r2, r4, r4
	add r2, r2, v0
	addi r2, r2, 3
	jr r31

.proc main
B0.entry: ;entry
	addi v1, r0, -76
	addi v2, r0, -70
	addi v3, r0, -9
	addi v4, r0, -36
	addi v5, r0, 69
	addi v6, r0, -42
	lui v7, 1
	addi v6, v1, 11
	mul v2, v1, v6
	srl v2, v6, 16
	or v4, v2, v1
	sll v4, v3, 16
	slti v6, v2, 11
	mul v3, v4, v5
	srl v6, v2, 18
	andi v1, v4, 41
	beq v1, v1 ;not-taken ;taken->B1.then fall->B2.else
B1.then:
	addi v10, r0, 1
	;fallthrough -> B4.loop
B2.else:
	andi v8, v4, 63
	sll v8, v8, 2
	add v9, v7, v8
	lw v5, 0(v9)
	andi v8, v4, 63
	sll v8, v8, 2
	add v9, v7, v8
	lw v6, 0(v9)
	andi v8, v3, 63
	sll v8, v8, 2
	add v9, v7, v8
	sw v4, 0(v9)
	j -> B3.join
B3.join:
	slti v4, v6, 1
	addi v11, r0, 2
	;fallthrough -> B7.loop
B4.loop:
	or r4, v1, r0
	jal leaf -> B6.loop.ret
B5.exit:
	;fallthrough -> B3.join
B6.loop.ret:
	or v5, r2, r0
	addi v10, v10, -1
	bgtz v10 ;not-taken ;taken->B4.loop fall->B5.exit
B7.loop:
	blez v1 ;not-taken ;taken->B9.then fall->B10.else
B8.exit:
	addi v12, r0, 1
	;fallthrough -> B13.loop
B9.then:
	or r4, v4, r0
	jal leaf -> B12.then.ret
B10.else:
	j -> B11.join
B11.join:
	addi v11, v11, -1
	bgtz v11 ;not-taken ;taken->B7.loop fall->B8.exit
B12.then.ret:
	or v1, r2, r0
	;fallthrough -> B11.join
B13.loop:
	sll v6, v4, 0
	sll v1, v1, 24
	sra v5, v2, 28
	addi v6, v6, 55
	slt v5, v5, v3
	addi v12, v12, -1
	bgtz v12 ;not-taken ;taken->B13.loop fall->B14.exit
B14.exit:
	andi v13, v5, 63
	sll v13, v13, 2
	add v14, v7, v13
	sw v3, 0(v14)
	out v1
	out v2
	out v3
	out v4
	out v5
	out v6
	halt
