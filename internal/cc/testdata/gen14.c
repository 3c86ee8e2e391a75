global g2: [64]int;
global h3: [8]ptr;
global g5: [64]int;
global h6: [8]ptr;
func f0(x: int): int {
    return (f3((x + 17075) & 2147483647) + 10807) & 2147483647;
}
func f1(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 3617) & 2147483647; } else if ((r & 3) == 1) { r = (r + 4535) & 2147483647; } else { r = (r ^ 9427) & 2147483647; }
    if (r > 4007680 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f2(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g2[i] = (x + i * 6745) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g2[(i * 8289) & 63]) & 2147483647; }
    return s;
}
func f3(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 5741) & 2147483647; h3[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h3[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f4(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 4763 + i) & 2147483647; }
    return s;
}
func f5(x: int): int {
    for (var i = 0; i < 64; i = i + 1) { g5[i] = (x + i * 11549) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 64; i = i + 1) { s = (s + g5[(i * 1319) & 63]) & 2147483647; }
    return s;
}
func f6(x: int): int {
    for (var i = 0; i < 8; i = i + 1) { var q = malloc(64); q[0] = (x + i * 30505) & 2147483647; h6[i] = q; }
    var s = 0;
    for (var i = 0; i < 8; i = i + 1) { var q = h6[i]; s = (s + q[0]) & 2147483647; free(q); }
    return s;
}
func f7(x: int): int {
    var s = x & 2147483647;
    for (var i = 0; i < 32; i = i + 1) { s = (s * 17965 + i) & 2147483647; }
    return s;
}
func f8(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 15397)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func f9(x: int): int {
    return (f10((x + 1545) & 2147483647) + 20543) & 2147483647;
}
func f10(x: int): int {
    var r = x & 2147483647;
    if ((r & 3) == 0) { r = (r * 17365) & 2147483647; } else if ((r & 3) == 1) { r = (r + 24839) & 2147483647; } else { r = (r ^ 7489) & 2147483647; }
    if (r > 1722112 && (r & 1) == 1) { r = (r >> 1) | 1; }
    return r;
}
func f11(x: int): int {
    var a = (x * 3539 + 471) & 2147483647;
    var b = (a ^ (a >> 9)) & 2147483647;
    return (a + b * 19951) & 2147483647;
}
func f12(x: int): int {
    var a = (x * 917 + 23569) & 2147483647;
    var b = (a ^ (a >> 10)) & 2147483647;
    return (a + b * 28923) & 2147483647;
}
func f13(x: int): int {
    var p = malloc(256);
    for (var i = 0; i < 32; i = i + 1) { p[i] = (x ^ (i * 9973)) & 2147483647; }
    var s = 0;
    for (var i = 0; i < 32; i = i + 1) { s = (s + p[i]) & 2147483647; }
    free(p);
    return s;
}
func main(): int {
    var acc = 506964458;
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
    print_int(acc);
    return acc;
}
