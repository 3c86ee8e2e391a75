global h1: [8]ptr;
global h5: [8]ptr;
global g6: [64]int;
global h9: [8]ptr;
global h14: [8]ptr;
global g16: [64]int;
global h18: [8]ptr;
global h19: [8]ptr;
global g20: [64]int;
global g22: [64]int;
global h24: [8]ptr;
global g26: [64]int;
global g27: [64]int;
global g28: [64]int;
global h32: [8]ptr;
global g39: [64]int;
global h41: [8]ptr;
global g44: [64]int;
global g46: [64]int;
global h57: [8]ptr;
global g58: [64]int;
global g60: [64]int;
global h62: [8]ptr;
global g64: [64]int;
global h65: [8]ptr;
global h70: [8]ptr;
global h76: [8]ptr;
global h77: [8]ptr;
global g80: [64]int;
global h84: [8]ptr;
global g87: [64]int;
global g90: [64]int;
global g91: [64]int;
global h96: [8]ptr;
global g99: [64]int;
global g115: [64]int;
global h121: [8]ptr;
global g124: [64]int;
global g127: [64]int;
global g131: [64]int;
global g132: [64]int;
global g136: [64]int;
global g140: [64]int;
global h143: [8]ptr;
global h151: [8]ptr;
global h153: [8]ptr;
global g154: [64]int;
global h155: [8]ptr;
global h165: [8]ptr;
global g171: [64]int;
global h172: [8]ptr;
global h173: [8]ptr;
global h176: [8]ptr;
global g179: [64]int;
global h184: [8]ptr;
global g186: [64]int;
global h187: [8]ptr;
global h192: [8]ptr;
global g196: [64]int;
global g199: [64]int;
global h201: [8]ptr;
global h205: [8]ptr;
global g207: [64]int;
global h223: [8]ptr;
global h229: [8]ptr;
global g232: [64]int;
global g234: [64]int;
global h236: [8]ptr;
func f0(x: int): int {
    return (f17((x + 3417) & 2147483647) + 5647) & 2147483647;
}
func f1(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 20123) & 2147483647; h1[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h1[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f2(x: int): int {
    var a = (x * 8945 + 26051) & 2147483647;
    var b = (a ^ (a >> 10)) & 2147483647;
    return (a + b * 22555) & 2147483647;
}
func f3(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 14825) & 2147483647; } else if ((r & 3) == 1) { r = (r + 11859) & 2147483647; } else { r = (r ^ 29687) & 2147483647; }
    if (r > 3721472 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f4(x: int): int {
    return (f70((x + 167) & 2147483647) + 32097) & 2147483647;
}
func f5(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 24795) & 2147483647; h5[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h5[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f6(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g6[i] = (x + i * 9905) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g6[(i * 6529) & 63]) & 2147483647; }
    return s;
}
func f7(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 4305)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f8(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 21585)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f9(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 11229) & 2147483647; h9[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h9[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f10(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 11261 + i) & 2147483647; }
    return s;
}
func f11(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 28497)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f12(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 6265)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f13(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 3671)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f14(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 227) & 2147483647; h14[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h14[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f15(x: int): int {
    var a = (x * 26097 + 24295) & 2147483647;
    var b = (a ^ (a >> 7)) & 2147483647;
    return (a + b * 691) & 2147483647;
}
func f16(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g16[i] = (x + i * 19669) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g16[(i * 1075) & 63]) & 2147483647; }
    return s;
}
func f17(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 16141) & 2147483647; } else if ((r & 3) == 1) { r = (r + 26789) & 2147483647; } else { r = (r ^ 16217) & 2147483647; }
    if (r > 4986112 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f18(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 29323) & 2147483647; h18[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h18[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f19(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 20503) & 2147483647; h19[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h19[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f20(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g20[i] = (x + i * 29563) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g20[(i * 10951) & 63]) & 2147483647; }
    return s;
}
func f21(x: int): int {
    var a = (x * 26525 + 25301) & 2147483647;
    var b = (a ^ (a >> 10)) & 2147483647;
    return (a + b * 4955) & 2147483647;
}
func f22(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g22[i] = (x + i * 9437) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g22[(i * 8111) & 63]) & 2147483647; }
    return s;
}
func f23(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 29249)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f24(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 24239) & 2147483647; h24[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h24[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f25(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 22435) & 2147483647; } else if ((r & 3) == 1) { r = (r + 11457) & 2147483647; } else { r = (r ^ 26473) & 2147483647; }
    if (r > 3850496 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f26(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g26[i] = (x + i * 14601) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g26[(i * 26797) & 63]) & 2147483647; }
    return s;
}
func f27(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g27[i] = (x + i * 22167) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g27[(i * 20347) & 63]) & 2147483647; }
    return s;
}
func f28(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g28[i] = (x + i * 18401) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g28[(i * 2085) & 63]) & 2147483647; }
    return s;
}
func f29(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 22367)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f30(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 12957) & 2147483647; } else if ((r & 3) == 1) { r = (r + 2031) & 2147483647; } else { r = (r ^ 7203) & 2147483647; }
    if (r > 5376768 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f31(x: int): int {
    var a = (x * 30995 + 28913) & 2147483647;
    var b = (a ^ (a >> 5)) & 2147483647;
    return (a + b * 7777) & 2147483647;
}
func f32(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 26235) & 2147483647; h32[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h32[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f33(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 16613) & 2147483647; } else if ((r & 3) == 1) { r = (r + 17085) & 2147483647; } else { r = (r ^ 4617) & 2147483647; }
    if (r > 6685440 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f34(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 7591) & 2147483647; } else if ((r & 3) == 1) { r = (r + 25205) & 2147483647; } else { r = (r ^ 21907) & 2147483647; }
    if (r > 2377984 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f35(x: int): int {
    var a = (x * 6611 + 6747) & 2147483647;
    var b = (a ^ (a >> 6)) & 2147483647;
    return (a + b * 5465) & 2147483647;
}
func f36(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 6583 + i) & 2147483647; }
    return s;
}
func f37(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 27241)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f38(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 6933 + i) & 2147483647; }
    return s;
}
func f39(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g39[i] = (x + i * 6363) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g39[(i * 27773) & 63]) & 2147483647; }
    return s;
}
func f40(x: int): int {
    return (f187((x + 4851) & 2147483647) + 29357) & 2147483647;
}
func f41(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 9567) & 2147483647; h41[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h41[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f42(x: int): int {
    return (f13((x + 19535) & 2147483647) + 30759) & 2147483647;
}
func f43(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 7401 + i) & 2147483647; }
    return s;
}
func f44(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g44[i] = (x + i * 15625) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g44[(i * 6299) & 63]) & 2147483647; }
    return s;
}
func f45(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 21307 + i) & 2147483647; }
    return s;
}
func f46(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g46[i] = (x + i * 25603) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g46[(i * 16395) & 63]) & 2147483647; }
    return s;
}
func f47(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 5239)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f48(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 32213 + i) & 2147483647; }
    return s;
}
func f49(x: int): int {
    return (f234((x + 8801) & 2147483647) + 793) & 2147483647;
}
func f50(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 27691 + i) & 2147483647; }
    return s;
}
func f51(x: int): int {
    return (f232((x + 18009) & 2147483647) + 32759) & 2147483647;
}
func f52(x: int): int {
    var a = (x * 24435 + 25029) & 2147483647;
    var b = (a ^ (a >> 9)) & 2147483647;
    return (a + b * 16215) & 2147483647;
}
func f53(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 27217) & 2147483647; } else if ((r & 3) == 1) { r = (r + 27721) & 2147483647; } else { r = (r ^ 14811) & 2147483647; }
    if (r > 493824 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f54(x: int): int {
    var a = (x * 20035 + 7839) & 2147483647;
    var b = (a ^ (a >> 10)) & 2147483647;
    return (a + b * 18147) & 2147483647;
}
func f55(x: int): int {
    var a = (x * 32191 + 4947) & 2147483647;
    var b = (a ^ (a >> 6)) & 2147483647;
    return (a + b * 16087) & 2147483647;
}
func f56(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 32351 + i) & 2147483647; }
    return s;
}
func f57(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 15587) & 2147483647; h57[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h57[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f58(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g58[i] = (x + i * 22661) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g58[(i * 10311) & 63]) & 2147483647; }
    return s;
}
func f59(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 13381 + i) & 2147483647; }
    return s;
}
func f60(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g60[i] = (x + i * 15265) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g60[(i * 889) & 63]) & 2147483647; }
    return s;
}
func f61(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 23) & 2147483647; } else if ((r & 3) == 1) { r = (r + 12103) & 2147483647; } else { r = (r ^ 19017) & 2147483647; }
    if (r > 1704704 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f62(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 7965) & 2147483647; h62[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h62[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f63(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 13919 + i) & 2147483647; }
    return s;
}
func f64(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g64[i] = (x + i * 6745) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g64[(i * 20223) & 63]) & 2147483647; }
    return s;
}
func f65(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 27069) & 2147483647; h65[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h65[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f66(x: int): int {
    return (f151((x + 25085) & 2147483647) + 18783) & 2147483647;
}
func f67(x: int): int {
    return (f212((x + 23451) & 2147483647) + 24229) & 2147483647;
}
func f68(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 29657 + i) & 2147483647; }
    return s;
}
func f69(x: int): int {
    var a = (x * 15489 + 22949) & 2147483647;
    var b = (a ^ (a >> 9)) & 2147483647;
    return (a + b * 12909) & 2147483647;
}
func f70(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 28525) & 2147483647; h70[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h70[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f71(x: int): int {
    return (f160((x + 20293) & 2147483647) + 29727) & 2147483647;
}
func f72(x: int): int {
    var a = (x * 5047 + 29589) & 2147483647;
    var b = (a ^ (a >> 4)) & 2147483647;
    return (a + b * 4405) & 2147483647;
}
func f73(x: int): int {
    return (f60((x + 24191) & 2147483647) + 30445) & 2147483647;
}
func f74(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 387 + i) & 2147483647; }
    return s;
}
func f75(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 31609) & 2147483647; } else if ((r & 3) == 1) { r = (r + 30795) & 2147483647; } else { r = (r ^ 31433) & 2147483647; }
    if (r > 506624 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f76(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 22417) & 2147483647; h76[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h76[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f77(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 20793) & 2147483647; h77[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h77[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f78(x: int): int {
    var a = (x * 31129 + 30695) & 2147483647;
    var b = (a ^ (a >> 9)) & 2147483647;
    return (a + b * 11379) & 2147483647;
}
func f79(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 27449 + i) & 2147483647; }
    return s;
}
func f80(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g80[i] = (x + i * 24445) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g80[(i * 5461) & 63]) & 2147483647; }
    return s;
}
func f81(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 10027)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f82(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 22547) & 2147483647; } else if ((r & 3) == 1) { r = (r + 32735) & 2147483647; } else { r = (r ^ 16887) & 2147483647; }
    if (r > 5316352 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f83(x: int): int {
    return (f76((x + 3583) & 2147483647) + 21549) & 2147483647;
}
func f84(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 8651) & 2147483647; h84[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h84[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f85(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 6011)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f86(x: int): int {
    var a = (x * 24879 + 12183) & 2147483647;
    var b = (a ^ (a >> 6)) & 2147483647;
    return (a + b * 28559) & 2147483647;
}
func f87(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g87[i] = (x + i * 1529) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g87[(i * 18555) & 63]) & 2147483647; }
    return s;
}
func f88(x: int): int {
    return (f8((x + 3953) & 2147483647) + 25621) & 2147483647;
}
func f89(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 26405) & 2147483647; } else if ((r & 3) == 1) { r = (r + 13713) & 2147483647; } else { r = (r ^ 8231) & 2147483647; }
    if (r > 256768 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f90(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g90[i] = (x + i * 29693) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g90[(i * 3089) & 63]) & 2147483647; }
    return s;
}
func f91(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g91[i] = (x + i * 21671) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g91[(i * 5801) & 63]) & 2147483647; }
    return s;
}
func f92(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 8741 + i) & 2147483647; }
    return s;
}
func f93(x: int): int {
    var a = (x * 31689 + 14323) & 2147483647;
    var b = (a ^ (a >> 6)) & 2147483647;
    return (a + b * 27577) & 2147483647;
}
func f94(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 18367 + i) & 2147483647; }
    return s;
}
func f95(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 25673)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f96(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 16147) & 2147483647; h96[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h96[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f97(x: int): int {
    return (f197((x + 26293) & 2147483647) + 25283) & 2147483647;
}
func f98(x: int): int {
    return (f92((x + 2125) & 2147483647) + 15911) & 2147483647;
}
func f99(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g99[i] = (x + i * 7749) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g99[(i * 7481) & 63]) & 2147483647; }
    return s;
}
func f100(x: int): int {
    return (f193((x + 24523) & 2147483647) + 18381) & 2147483647;
}
func f101(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 20423 + i) & 2147483647; }
    return s;
}
func f102(x: int): int {
    var a = (x * 23865 + 819) & 2147483647;
    var b = (a ^ (a >> 9)) & 2147483647;
    return (a + b * 30627) & 2147483647;
}
func f103(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 16007)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f104(x: int): int {
    return (f75((x + 19045) & 2147483647) + 19329) & 2147483647;
}
func f105(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 5087)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f106(x: int): int {
    return (f9((x + 25223) & 2147483647) + 31805) & 2147483647;
}
func f107(x: int): int {
    var a = (x * 11829 + 17967) & 2147483647;
    var b = (a ^ (a >> 10)) & 2147483647;
    return (a + b * 8703) & 2147483647;
}
func f108(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 8969 + i) & 2147483647; }
    return s;
}
func f109(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 14307) & 2147483647; } else if ((r & 3) == 1) { r = (r + 6775) & 2147483647; } else { r = (r ^ 22043) & 2147483647; }
    if (r > 1222912 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f110(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 20343)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f111(x: int): int {
    return (f216((x + 30841) & 2147483647) + 3707) & 2147483647;
}
func f112(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 32587 + i) & 2147483647; }
    return s;
}
func f113(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 3231) & 2147483647; } else if ((r & 3) == 1) { r = (r + 24521) & 2147483647; } else { r = (r ^ 7621) & 2147483647; }
    if (r > 3486464 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f114(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 31627)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f115(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g115[i] = (x + i * 11223) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g115[(i * 13539) & 63]) & 2147483647; }
    return s;
}
func f116(x: int): int {
    var a = (x * 8589 + 12287) & 2147483647;
    var b = (a ^ (a >> 5)) & 2147483647;
    return (a + b * 22491) & 2147483647;
}
func f117(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 23783)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f118(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 16205) & 2147483647; } else if ((r & 3) == 1) { r = (r + 7787) & 2147483647; } else { r = (r ^ 21101) & 2147483647; }
    if (r > 5775104 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f119(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 12569 + i) & 2147483647; }
    return s;
}
func f120(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 18913)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f121(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 3713) & 2147483647; h121[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h121[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f122(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 13073) & 2147483647; } else if ((r & 3) == 1) { r = (r + 4871) & 2147483647; } else { r = (r ^ 27569) & 2147483647; }
    if (r > 6096640 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f123(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 29363 + i) & 2147483647; }
    return s;
}
func f124(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g124[i] = (x + i * 11649) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g124[(i * 16207) & 63]) & 2147483647; }
    return s;
}
func f125(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 32173 + i) & 2147483647; }
    return s;
}
func f126(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 28025 + i) & 2147483647; }
    return s;
}
func f127(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g127[i] = (x + i * 7271) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g127[(i * 6047) & 63]) & 2147483647; }
    return s;
}
func f128(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 2029)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f129(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 14975)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f130(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 25903) & 2147483647; } else if ((r & 3) == 1) { r = (r + 24393) & 2147483647; } else { r = (r ^ 20113) & 2147483647; }
    if (r > 6903552 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f131(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g131[i] = (x + i * 5605) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g131[(i * 1597) & 63]) & 2147483647; }
    return s;
}
func f132(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g132[i] = (x + i * 15025) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g132[(i * 2909) & 63]) & 2147483647; }
    return s;
}
func f133(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 28935)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f134(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 4757) & 2147483647; } else if ((r & 3) == 1) { r = (r + 25027) & 2147483647; } else { r = (r ^ 20901) & 2147483647; }
    if (r > 5047040 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f135(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 10677) & 2147483647; } else if ((r & 3) == 1) { r = (r + 16105) & 2147483647; } else { r = (r ^ 10907) & 2147483647; }
    if (r > 1079040 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f136(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g136[i] = (x + i * 9587) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g136[(i * 18101) & 63]) & 2147483647; }
    return s;
}
func f137(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 2017 + i) & 2147483647; }
    return s;
}
func f138(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 22367)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f139(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 24355 + i) & 2147483647; }
    return s;
}
func f140(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g140[i] = (x + i * 697) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g140[(i * 10965) & 63]) & 2147483647; }
    return s;
}
func f141(x: int): int {
    var a = (x * 29471 + 431) & 2147483647;
    var b = (a ^ (a >> 4)) & 2147483647;
    return (a + b * 9407) & 2147483647;
}
func f142(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 25235) & 2147483647; } else if ((r & 3) == 1) { r = (r + 24853) & 2147483647; } else { r = (r ^ 27699) & 2147483647; }
    if (r > 2460416 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f143(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 5443) & 2147483647; h143[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h143[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f144(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 4159)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f145(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 14975) & 2147483647; } else if ((r & 3) == 1) { r = (r + 18045) & 2147483647; } else { r = (r ^ 29085) & 2147483647; }
    if (r > 5465344 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f146(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 12091 + i) & 2147483647; }
    return s;
}
func f147(x: int): int {
    return (f68((x + 13887) & 2147483647) + 24181) & 2147483647;
}
func f148(x: int): int {
    var a = (x * 26223 + 27701) & 2147483647;
    var b = (a ^ (a >> 8)) & 2147483647;
    return (a + b * 11595) & 2147483647;
}
func f149(x: int): int {
    return (f86((x + 12037) & 2147483647) + 12291) & 2147483647;
}
func f150(x: int): int {
    var a = (x * 829 + 26689) & 2147483647;
    var b = (a ^ (a >> 10)) & 2147483647;
    return (a + b * 27317) & 2147483647;
}
func f151(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 20221) & 2147483647; h151[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h151[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f152(x: int): int {
    return (f219((x + 16745) & 2147483647) + 7829) & 2147483647;
}
func f153(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 6765) & 2147483647; h153[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h153[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f154(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g154[i] = (x + i * 21581) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g154[(i * 4769) & 63]) & 2147483647; }
    return s;
}
func f155(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 3217) & 2147483647; h155[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h155[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f156(x: int): int {
    return (f2((x + 9449) & 2147483647) + 10137) & 2147483647;
}
func f157(x: int): int {
    return (f234((x + 10461) & 2147483647) + 1371) & 2147483647;
}
func f158(x: int): int {
    var a = (x * 24067 + 17189) & 2147483647;
    var b = (a ^ (a >> 6)) & 2147483647;
    return (a + b * 16589) & 2147483647;
}
func f159(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 10445) & 2147483647; } else if ((r & 3) == 1) { r = (r + 29709) & 2147483647; } else { r = (r ^ 18571) & 2147483647; }
    if (r > 4242688 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f160(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 17153 + i) & 2147483647; }
    return s;
}
func f161(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 32551 + i) & 2147483647; }
    return s;
}
func f162(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 15605 + i) & 2147483647; }
    return s;
}
func f163(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 1349)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f164(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 16413 + i) & 2147483647; }
    return s;
}
func f165(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 19839) & 2147483647; h165[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h165[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f166(x: int): int {
    var a = (x * 289 + 29305) & 2147483647;
    var b = (a ^ (a >> 10)) & 2147483647;
    return (a + b * 13835) & 2147483647;
}
func f167(x: int): int {
    return (f228((x + 27219) & 2147483647) + 26335) & 2147483647;
}
func f168(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 17857) & 2147483647; } else if ((r & 3) == 1) { r = (r + 5893) & 2147483647; } else { r = (r ^ 13963) & 2147483647; }
    if (r > 8075520 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f169(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 8905) & 2147483647; } else if ((r & 3) == 1) { r = (r + 28691) & 2147483647; } else { r = (r ^ 20869) & 2147483647; }
    if (r > 3025664 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f170(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 24519) & 2147483647; } else if ((r & 3) == 1) { r = (r + 9339) & 2147483647; } else { r = (r ^ 12811) & 2147483647; }
    if (r > 5963008 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f171(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g171[i] = (x + i * 24469) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g171[(i * 5743) & 63]) & 2147483647; }
    return s;
}
func f172(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 30397) & 2147483647; h172[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h172[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f173(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 26503) & 2147483647; h173[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h173[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f174(x: int): int {
    var a = (x * 13583 + 12161) & 2147483647;
    var b = (a ^ (a >> 10)) & 2147483647;
    return (a + b * 25155) & 2147483647;
}
func f175(x: int): int {
    return (f238((x + 24267) & 2147483647) + 305) & 2147483647;
}
func f176(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 25789) & 2147483647; h176[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h176[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f177(x: int): int {
    return (f63((x + 19277) & 2147483647) + 17275) & 2147483647;
}
func f178(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 29723) & 2147483647; } else if ((r & 3) == 1) { r = (r + 7629) & 2147483647; } else { r = (r ^ 7581) & 2147483647; }
    if (r > 3689216 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f179(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g179[i] = (x + i * 1915) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g179[(i * 29851) & 63]) & 2147483647; }
    return s;
}
func f180(x: int): int {
    return (f36((x + 24387) & 2147483647) + 313) & 2147483647;
}
func f181(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 29147) & 2147483647; } else if ((r & 3) == 1) { r = (r + 3571) & 2147483647; } else { r = (r ^ 16687) & 2147483647; }
    if (r > 8230656 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f182(x: int): int {
    var a = (x * 18581 + 4049) & 2147483647;
    var b = (a ^ (a >> 8)) & 2147483647;
    return (a + b * 4537) & 2147483647;
}
func f183(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 2181) & 2147483647; } else if ((r & 3) == 1) { r = (r + 12427) & 2147483647; } else { r = (r ^ 12981) & 2147483647; }
    if (r > 7500544 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f184(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 26809) & 2147483647; h184[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h184[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f185(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 12877) & 2147483647; } else if ((r & 3) == 1) { r = (r + 25563) & 2147483647; } else { r = (r ^ 8177) & 2147483647; }
    if (r > 847104 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f186(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g186[i] = (x + i * 20443) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g186[(i * 1881) & 63]) & 2147483647; }
    return s;
}
func f187(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 5165) & 2147483647; h187[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h187[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f188(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 26935)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f189(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 24033) & 2147483647; } else if ((r & 3) == 1) { r = (r + 17061) & 2147483647; } else { r = (r ^ 15079) & 2147483647; }
    if (r > 7945472 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f190(x: int): int {
    var a = (x * 25973 + 27439) & 2147483647;
    var b = (a ^ (a >> 7)) & 2147483647;
    return (a + b * 3263) & 2147483647;
}
func f191(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 479)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f192(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 19021) & 2147483647; h192[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h192[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f193(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 9805)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f194(x: int): int {
    return (f173((x + 22847) & 2147483647) + 17619) & 2147483647;
}
func f195(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 13059) & 2147483647; } else if ((r & 3) == 1) { r = (r + 29549) & 2147483647; } else { r = (r ^ 32289) & 2147483647; }
    if (r > 3164928 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f196(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g196[i] = (x + i * 6305) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g196[(i * 8169) & 63]) & 2147483647; }
    return s;
}
func f197(x: int): int {
    var a = (x * 18381 + 3247) & 2147483647;
    var b = (a ^ (a >> 5)) & 2147483647;
    return (a + b * 24495) & 2147483647;
}
func f198(x: int): int {
    var a = (x * 1777 + 20903) & 2147483647;
    var b = (a ^ (a >> 4)) & 2147483647;
    return (a + b * 30781) & 2147483647;
}
func f199(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g199[i] = (x + i * 6365) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g199[(i * 11923) & 63]) & 2147483647; }
    return s;
}
func f200(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 22733 + i) & 2147483647; }
    return s;
}
func f201(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 16481) & 2147483647; h201[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h201[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f202(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 20941) & 2147483647; } else if ((r & 3) == 1) { r = (r + 18559) & 2147483647; } else { r = (r ^ 7293) & 2147483647; }
    if (r > 5257472 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f203(x: int): int {
    return (f225((x + 6839) & 2147483647) + 29815) & 2147483647;
}
func f204(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 18921) & 2147483647; } else if ((r & 3) == 1) { r = (r + 5045) & 2147483647; } else { r = (r ^ 13129) & 2147483647; }
    if (r > 3879168 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f205(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 26381) & 2147483647; h205[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h205[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f206(x: int): int {
    var a = (x * 32383 + 23659) & 2147483647;
    var b = (a ^ (a >> 9)) & 2147483647;
    return (a + b * 17251) & 2147483647;
}
func f207(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g207[i] = (x + i * 15217) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g207[(i * 18481) & 63]) & 2147483647; }
    return s;
}
func f208(x: int): int {
    var a = (x * 139 + 23659) & 2147483647;
    var b = (a ^ (a >> 6)) & 2147483647;
    return (a + b * 21687) & 2147483647;
}
func f209(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 31117) & 2147483647; } else if ((r & 3) == 1) { r = (r + 15937) & 2147483647; } else { r = (r ^ 8759) & 2147483647; }
    if (r > 6140160 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f210(x: int): int {
    return (f201((x + 4163) & 2147483647) + 22831) & 2147483647;
}
func f211(x: int): int {
    var a = (x * 21999 + 18875) & 2147483647;
    var b = (a ^ (a >> 3)) & 2147483647;
    return (a + b * 12637) & 2147483647;
}
func f212(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 20271)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f213(x: int): int {
    return (f154((x + 13669) & 2147483647) + 30581) & 2147483647;
}
func f214(x: int): int {
    return (f160((x + 15355) & 2147483647) + 153) & 2147483647;
}
func f215(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 29181)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f216(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 10071)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f217(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 23859)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f218(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 23997 + i) & 2147483647; }
    return s;
}
func f219(x: int): int {
    var a = (x * 16957 + 32381) & 2147483647;
    var b = (a ^ (a >> 9)) & 2147483647;
    return (a + b * 26823) & 2147483647;
}
func f220(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 17431 + i) & 2147483647; }
    return s;
}
func f221(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 1095)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f222(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 27947 + i) & 2147483647; }
    return s;
}
func f223(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 20313) & 2147483647; h223[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h223[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f224(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 17459) & 2147483647; } else if ((r & 3) == 1) { r = (r + 30965) & 2147483647; } else { r = (r ^ 17167) & 2147483647; }
    if (r > 6390016 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f225(x: int): int {
    var a = (x * 32191 + 22325) & 2147483647;
    var b = (a ^ (a >> 5)) & 2147483647;
    return (a + b * 23779) & 2147483647;
}
func f226(x: int): int {
    return (f202((x + 13027) & 2147483647) + 9311) & 2147483647;
}
func f227(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 15613)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f228(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 2475)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f229(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 23791) & 2147483647; h229[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h229[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f230(x: int): int {
    var a = (x * 21503 + 27759) & 2147483647;
    var b = (a ^ (a >> 6)) & 2147483647;
    return (a + b * 11121) & 2147483647;
}
func f231(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 30279 + i) & 2147483647; }
    return s;
}
func f232(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g232[i] = (x + i * 13497) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g232[(i * 4645) & 63]) & 2147483647; }
    return s;
}
func f233(x: int): int {
    var a = (x * 15755 + 9325) & 2147483647;
    var b = (a ^ (a >> 5)) & 2147483647;
    return (a + b * 11533) & 2147483647;
}
func f234(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g234[i] = (x + i * 6833) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g234[(i * 32121) & 63]) & 2147483647; }
    return s;
}
func f235(x: int): int {
    var a = (x * 31641 + 6613) & 2147483647;
    var b = (a ^ (a >> 7)) & 2147483647;
    return (a + b * 9593) & 2147483647;
}
func f236(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 821) & 2147483647; h236[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h236[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f237(x: int): int {
    var a = (x * 19089 + 8961) & 2147483647;
    var b = (a ^ (a >> 7)) & 2147483647;
    return (a + b * 6607) & 2147483647;
}
func f238(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 24905 + i) & 2147483647; }
    return s;
}
func f239(x: int): int {
    return (f60((x + 19899) & 2147483647) + 12623) & 2147483647;
}
func main(): int {
    var acc = 1401193488;
    acc = (acc ^ f0(acc)) & 2147483647;
    acc = (acc ^ f1(acc)) & 2147483647;
    acc = (acc ^ f2(acc)) & 2147483647;
    acc = (acc ^ f3(acc)) & 2147483647;
    acc = (acc ^ f4(acc)) & 2147483647;
    acc = (acc ^ f5(acc)) & 2147483647;
    acc = (acc ^ f6(acc)) & 2147483647;
    acc = (acc ^ f7(acc)) & 2147483647;
    acc = (acc ^ f8(acc)) & 2147483647;
    acc = (acc ^ f9(acc)) & 2147483647;
    acc = (acc ^ f10(acc)) & 2147483647;
    acc = (acc ^ f11(acc)) & 2147483647;
    acc = (acc ^ f12(acc)) & 2147483647;
    acc = (acc ^ f13(acc)) & 2147483647;
    acc = (acc ^ f14(acc)) & 2147483647;
    acc = (acc ^ f15(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f16(acc)) & 2147483647;
    acc = (acc ^ f17(acc)) & 2147483647;
    acc = (acc ^ f18(acc)) & 2147483647;
    acc = (acc ^ f19(acc)) & 2147483647;
    acc = (acc ^ f20(acc)) & 2147483647;
    acc = (acc ^ f21(acc)) & 2147483647;
    acc = (acc ^ f22(acc)) & 2147483647;
    acc = (acc ^ f23(acc)) & 2147483647;
    acc = (acc ^ f24(acc)) & 2147483647;
    acc = (acc ^ f25(acc)) & 2147483647;
    acc = (acc ^ f26(acc)) & 2147483647;
    acc = (acc ^ f27(acc)) & 2147483647;
    acc = (acc ^ f28(acc)) & 2147483647;
    acc = (acc ^ f29(acc)) & 2147483647;
    acc = (acc ^ f30(acc)) & 2147483647;
    acc = (acc ^ f31(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f32(acc)) & 2147483647;
    acc = (acc ^ f33(acc)) & 2147483647;
    acc = (acc ^ f34(acc)) & 2147483647;
    acc = (acc ^ f35(acc)) & 2147483647;
    acc = (acc ^ f36(acc)) & 2147483647;
    acc = (acc ^ f37(acc)) & 2147483647;
    acc = (acc ^ f38(acc)) & 2147483647;
    acc = (acc ^ f39(acc)) & 2147483647;
    acc = (acc ^ f40(acc)) & 2147483647;
    acc = (acc ^ f41(acc)) & 2147483647;
    acc = (acc ^ f42(acc)) & 2147483647;
    acc = (acc ^ f43(acc)) & 2147483647;
    acc = (acc ^ f44(acc)) & 2147483647;
    acc = (acc ^ f45(acc)) & 2147483647;
    acc = (acc ^ f46(acc)) & 2147483647;
    acc = (acc ^ f47(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f48(acc)) & 2147483647;
    acc = (acc ^ f49(acc)) & 2147483647;
    acc = (acc ^ f50(acc)) & 2147483647;
    acc = (acc ^ f51(acc)) & 2147483647;
    acc = (acc ^ f52(acc)) & 2147483647;
    acc = (acc ^ f53(acc)) & 2147483647;
    acc = (acc ^ f54(acc)) & 2147483647;
    acc = (acc ^ f55(acc)) & 2147483647;
    acc = (acc ^ f56(acc)) & 2147483647;
    acc = (acc ^ f57(acc)) & 2147483647;
    acc = (acc ^ f58(acc)) & 2147483647;
    acc = (acc ^ f59(acc)) & 2147483647;
    acc = (acc ^ f60(acc)) & 2147483647;
    acc = (acc ^ f61(acc)) & 2147483647;
    acc = (acc ^ f62(acc)) & 2147483647;
    acc = (acc ^ f63(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f64(acc)) & 2147483647;
    acc = (acc ^ f65(acc)) & 2147483647;
    acc = (acc ^ f66(acc)) & 2147483647;
    acc = (acc ^ f67(acc)) & 2147483647;
    acc = (acc ^ f68(acc)) & 2147483647;
    acc = (acc ^ f69(acc)) & 2147483647;
    acc = (acc ^ f70(acc)) & 2147483647;
    acc = (acc ^ f71(acc)) & 2147483647;
    acc = (acc ^ f72(acc)) & 2147483647;
    acc = (acc ^ f73(acc)) & 2147483647;
    acc = (acc ^ f74(acc)) & 2147483647;
    acc = (acc ^ f75(acc)) & 2147483647;
    acc = (acc ^ f76(acc)) & 2147483647;
    acc = (acc ^ f77(acc)) & 2147483647;
    acc = (acc ^ f78(acc)) & 2147483647;
    acc = (acc ^ f79(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f80(acc)) & 2147483647;
    acc = (acc ^ f81(acc)) & 2147483647;
    acc = (acc ^ f82(acc)) & 2147483647;
    acc = (acc ^ f83(acc)) & 2147483647;
    acc = (acc ^ f84(acc)) & 2147483647;
    acc = (acc ^ f85(acc)) & 2147483647;
    acc = (acc ^ f86(acc)) & 2147483647;
    acc = (acc ^ f87(acc)) & 2147483647;
    acc = (acc ^ f88(acc)) & 2147483647;
    acc = (acc ^ f89(acc)) & 2147483647;
    acc = (acc ^ f90(acc)) & 2147483647;
    acc = (acc ^ f91(acc)) & 2147483647;
    acc = (acc ^ f92(acc)) & 2147483647;
    acc = (acc ^ f93(acc)) & 2147483647;
    acc = (acc ^ f94(acc)) & 2147483647;
    acc = (acc ^ f95(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f96(acc)) & 2147483647;
    acc = (acc ^ f97(acc)) & 2147483647;
    acc = (acc ^ f98(acc)) & 2147483647;
    acc = (acc ^ f99(acc)) & 2147483647;
    acc = (acc ^ f100(acc)) & 2147483647;
    acc = (acc ^ f101(acc)) & 2147483647;
    acc = (acc ^ f102(acc)) & 2147483647;
    acc = (acc ^ f103(acc)) & 2147483647;
    acc = (acc ^ f104(acc)) & 2147483647;
    acc = (acc ^ f105(acc)) & 2147483647;
    acc = (acc ^ f106(acc)) & 2147483647;
    acc = (acc ^ f107(acc)) & 2147483647;
    acc = (acc ^ f108(acc)) & 2147483647;
    acc = (acc ^ f109(acc)) & 2147483647;
    acc = (acc ^ f110(acc)) & 2147483647;
    acc = (acc ^ f111(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f112(acc)) & 2147483647;
    acc = (acc ^ f113(acc)) & 2147483647;
    acc = (acc ^ f114(acc)) & 2147483647;
    acc = (acc ^ f115(acc)) & 2147483647;
    acc = (acc ^ f116(acc)) & 2147483647;
    acc = (acc ^ f117(acc)) & 2147483647;
    acc = (acc ^ f118(acc)) & 2147483647;
    acc = (acc ^ f119(acc)) & 2147483647;
    acc = (acc ^ f120(acc)) & 2147483647;
    acc = (acc ^ f121(acc)) & 2147483647;
    acc = (acc ^ f122(acc)) & 2147483647;
    acc = (acc ^ f123(acc)) & 2147483647;
    acc = (acc ^ f124(acc)) & 2147483647;
    acc = (acc ^ f125(acc)) & 2147483647;
    acc = (acc ^ f126(acc)) & 2147483647;
    acc = (acc ^ f127(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f128(acc)) & 2147483647;
    acc = (acc ^ f129(acc)) & 2147483647;
    acc = (acc ^ f130(acc)) & 2147483647;
    acc = (acc ^ f131(acc)) & 2147483647;
    acc = (acc ^ f132(acc)) & 2147483647;
    acc = (acc ^ f133(acc)) & 2147483647;
    acc = (acc ^ f134(acc)) & 2147483647;
    acc = (acc ^ f135(acc)) & 2147483647;
    acc = (acc ^ f136(acc)) & 2147483647;
    acc = (acc ^ f137(acc)) & 2147483647;
    acc = (acc ^ f138(acc)) & 2147483647;
    acc = (acc ^ f139(acc)) & 2147483647;
    acc = (acc ^ f140(acc)) & 2147483647;
    acc = (acc ^ f141(acc)) & 2147483647;
    acc = (acc ^ f142(acc)) & 2147483647;
    acc = (acc ^ f143(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f144(acc)) & 2147483647;
    acc = (acc ^ f145(acc)) & 2147483647;
    acc = (acc ^ f146(acc)) & 2147483647;
    acc = (acc ^ f147(acc)) & 2147483647;
    acc = (acc ^ f148(acc)) & 2147483647;
    acc = (acc ^ f149(acc)) & 2147483647;
    acc = (acc ^ f150(acc)) & 2147483647;
    acc = (acc ^ f151(acc)) & 2147483647;
    acc = (acc ^ f152(acc)) & 2147483647;
    acc = (acc ^ f153(acc)) & 2147483647;
    acc = (acc ^ f154(acc)) & 2147483647;
    acc = (acc ^ f155(acc)) & 2147483647;
    acc = (acc ^ f156(acc)) & 2147483647;
    acc = (acc ^ f157(acc)) & 2147483647;
    acc = (acc ^ f158(acc)) & 2147483647;
    acc = (acc ^ f159(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f160(acc)) & 2147483647;
    acc = (acc ^ f161(acc)) & 2147483647;
    acc = (acc ^ f162(acc)) & 2147483647;
    acc = (acc ^ f163(acc)) & 2147483647;
    acc = (acc ^ f164(acc)) & 2147483647;
    acc = (acc ^ f165(acc)) & 2147483647;
    acc = (acc ^ f166(acc)) & 2147483647;
    acc = (acc ^ f167(acc)) & 2147483647;
    acc = (acc ^ f168(acc)) & 2147483647;
    acc = (acc ^ f169(acc)) & 2147483647;
    acc = (acc ^ f170(acc)) & 2147483647;
    acc = (acc ^ f171(acc)) & 2147483647;
    acc = (acc ^ f172(acc)) & 2147483647;
    acc = (acc ^ f173(acc)) & 2147483647;
    acc = (acc ^ f174(acc)) & 2147483647;
    acc = (acc ^ f175(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f176(acc)) & 2147483647;
    acc = (acc ^ f177(acc)) & 2147483647;
    acc = (acc ^ f178(acc)) & 2147483647;
    acc = (acc ^ f179(acc)) & 2147483647;
    acc = (acc ^ f180(acc)) & 2147483647;
    acc = (acc ^ f181(acc)) & 2147483647;
    acc = (acc ^ f182(acc)) & 2147483647;
    acc = (acc ^ f183(acc)) & 2147483647;
    acc = (acc ^ f184(acc)) & 2147483647;
    acc = (acc ^ f185(acc)) & 2147483647;
    acc = (acc ^ f186(acc)) & 2147483647;
    acc = (acc ^ f187(acc)) & 2147483647;
    acc = (acc ^ f188(acc)) & 2147483647;
    acc = (acc ^ f189(acc)) & 2147483647;
    acc = (acc ^ f190(acc)) & 2147483647;
    acc = (acc ^ f191(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f192(acc)) & 2147483647;
    acc = (acc ^ f193(acc)) & 2147483647;
    acc = (acc ^ f194(acc)) & 2147483647;
    acc = (acc ^ f195(acc)) & 2147483647;
    acc = (acc ^ f196(acc)) & 2147483647;
    acc = (acc ^ f197(acc)) & 2147483647;
    acc = (acc ^ f198(acc)) & 2147483647;
    acc = (acc ^ f199(acc)) & 2147483647;
    acc = (acc ^ f200(acc)) & 2147483647;
    acc = (acc ^ f201(acc)) & 2147483647;
    acc = (acc ^ f202(acc)) & 2147483647;
    acc = (acc ^ f203(acc)) & 2147483647;
    acc = (acc ^ f204(acc)) & 2147483647;
    acc = (acc ^ f205(acc)) & 2147483647;
    acc = (acc ^ f206(acc)) & 2147483647;
    acc = (acc ^ f207(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f208(acc)) & 2147483647;
    acc = (acc ^ f209(acc)) & 2147483647;
    acc = (acc ^ f210(acc)) & 2147483647;
    acc = (acc ^ f211(acc)) & 2147483647;
    acc = (acc ^ f212(acc)) & 2147483647;
    acc = (acc ^ f213(acc)) & 2147483647;
    acc = (acc ^ f214(acc)) & 2147483647;
    acc = (acc ^ f215(acc)) & 2147483647;
    acc = (acc ^ f216(acc)) & 2147483647;
    acc = (acc ^ f217(acc)) & 2147483647;
    acc = (acc ^ f218(acc)) & 2147483647;
    acc = (acc ^ f219(acc)) & 2147483647;
    acc = (acc ^ f220(acc)) & 2147483647;
    acc = (acc ^ f221(acc)) & 2147483647;
    acc = (acc ^ f222(acc)) & 2147483647;
    acc = (acc ^ f223(acc)) & 2147483647;
    print_int(acc);
    acc = (acc ^ f224(acc)) & 2147483647;
    acc = (acc ^ f225(acc)) & 2147483647;
    acc = (acc ^ f226(acc)) & 2147483647;
    acc = (acc ^ f227(acc)) & 2147483647;
    acc = (acc ^ f228(acc)) & 2147483647;
    acc = (acc ^ f229(acc)) & 2147483647;
    acc = (acc ^ f230(acc)) & 2147483647;
    acc = (acc ^ f231(acc)) & 2147483647;
    acc = (acc ^ f232(acc)) & 2147483647;
    acc = (acc ^ f233(acc)) & 2147483647;
    acc = (acc ^ f234(acc)) & 2147483647;
    acc = (acc ^ f235(acc)) & 2147483647;
    acc = (acc ^ f236(acc)) & 2147483647;
    acc = (acc ^ f237(acc)) & 2147483647;
    acc = (acc ^ f238(acc)) & 2147483647;
    acc = (acc ^ f239(acc)) & 2147483647;
    print_int(acc);
    return acc;
}
