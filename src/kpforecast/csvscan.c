/* Number text both ways for the package's canonical CSV files.
 *
 * Both directions handle one row shape: a timestamp and cols numbers, the
 * stamp first (t,v1,...,vn: a measurement file of solar wind, Dst or Kp)
 * or last (v1,...,vn,t: the rows of a dataset CSV after its header).
 *
 * Reading.  ``kp_scan_rows`` returns the arrays the Python reader of
 * ``ingest`` builds, or -1 as soon as the bytes leave the grammar below.
 * The caller then reads the same bytes with that Python reader, which
 * stays the reference and words every error, so a value read here is the
 * value it reads and a fault is reported as it reports it.
 *
 * The grammar:
 *   - a line ends in '\n', or at the end of the buffer; an empty line, and
 *     a line that starts with '#', is skipped;
 *   - every other byte is printable ASCII (0x20 to 0x7e), so a '\r', a tab
 *     or a byte of a multi-byte character is -1;
 *   - t is YYYY-MM-DDTHH:MMZ or YYYY-MM-DDTHH:MM:00Z, returned as the
 *     number YYYYMMDDHHMM; the calendar check is the caller's;
 *   - a number matches [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? with ASCII
 *     digits d, and its value is the correctly rounded double, as Python's
 *     float() gives it; that value must be finite;
 *   - an empty field is a gap: NaN, not present (a dataset has none, so
 *     its reader reports a row with a gap as a fault);
 *   - anything else is -1: a wrong cell count, a blank before or after a
 *     cell, 1_0, 0x1p3, nan, inf, 1e400.
 *
 * A number is converted by Eisel-Lemire (Lemire, "Number Parsing at a
 * Gigabyte per Second", 2021), in the form of Go's strconv: its first 19
 * significant digits times a 128-bit power of five.  It falls back to
 * strtod for more than 19 significant digits and for a product it cannot
 * round (too close to a halfway point, or a result that is subnormal or
 * not finite).  strtod reads on until the number ends, so where it runs the
 * byte at buf[len] must be readable and not part of a number: a Python
 * bytes object ends in a NUL.
 *
 * Writing.  ``kp_format_rows`` writes rows of numbers as CSV lines, each
 * number as Python's repr writes it: the shortest digits that read back
 * to the same double (of those, the nearest, ties to even), found by
 * Schubfach (Giulietti, "The Schubfach way to render doubles", 2020, in
 * the form of Java's DoubleToDecimal), then laid out as repr lays them out.
 *
 * Both directions use the 128-bit significands of the powers of five in
 * ``kp_pow5``, which the library computes from exact integers when it is
 * loaded.  The functions touch no Python object, so they run with the
 * interpreter lock released.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DIGIT(c) ((unsigned)((c) - '0') < 10u)
#define PRINTABLE(c) ((unsigned char)(c) >= 0x20 && (unsigned char)(c) <= 0x7e)

/* The powers of five: for POW5_MIN <= q <= POW5_MAX, kp_pow5[2 (q -
 * POW5_MIN)] is the high and the next entry the low 64 bits of
 * floor(5^q 2^b), with b such that bit 127 is the top bit.  The range
 * covers every power Eisel-Lemire rounds with and every power of ten
 * Schubfach scales a double by. */
#define POW5_MIN (-342)
#define POW5_MAX 324
uint64_t kp_pow5[2 * (POW5_MAX - POW5_MIN + 1)];

/* Unsigned integers of LIMBS 32-bit limbs, least significant first: 5^342
 * and twice a remainder below it take under 800 bits. */
#define LIMBS 25

static int bit_length(const uint32_t *a)
{
    for (int i = LIMBS - 1; i >= 0; i--)
        if (a[i])
            return 32 * i + 32 - __builtin_clz(a[i]);
    return 0;
}

/* a = a * m, over a's lowest size limbs */
static void multiply(uint32_t *a, uint32_t m, int size)
{
    uint64_t carry = 0;
    for (int i = 0; i < size; i++) {
        carry += (uint64_t)a[i] * m;
        a[i] = (uint32_t)carry;
        carry >>= 32;
    }
}

/* a = a - b, if a >= b, over their lowest size limbs (the rest are 0);
 * returns whether it subtracted. */
static int subtract_if_at_least(uint32_t *a, const uint32_t *b, int size)
{
    int64_t borrow = 0;
    for (int i = size - 1; i >= 0; i--) {
        if (a[i] != b[i]) {
            if (a[i] < b[i])
                return 0;
            break;
        }
    }
    for (int i = 0; i < size; i++) {
        int64_t d = (int64_t)a[i] - b[i] - borrow;
        borrow = d < 0;
        a[i] = (uint32_t)d;
    }
    return 1;
}

static void store_power(int q, unsigned __int128 v)
{
    kp_pow5[2 * (q - POW5_MIN)] = (uint64_t)(v >> 64);
    kp_pow5[2 * (q - POW5_MIN) + 1] = (uint64_t)v;
}

/* Fills kp_pow5 when the library is loaded, before any caller can use it.
 * With five = 5^p of bit length n: 5^p's top 128 bits for q = p, and
 * floor(2^(n + 127) / 5^p) for q = -p, by long division one bit at a time
 * (2^(n - 1) < 5^p < 2^n for p > 0, so the quotient has 128 bits). */
__attribute__((constructor)) static void build_powers(void)
{
    uint32_t five[LIMBS] = {1};
    for (int p = 0; p <= -POW5_MIN; p++, multiply(five, 5, LIMBS)) {
        int n = bit_length(five), size = n / 32 + 1; /* 2 5^p < 2^(32 size) */
        if (p <= POW5_MAX) {
            unsigned __int128 top = 0;
            for (int i = n - 1; i >= n - 128; i--)
                top = top << 1 | (i >= 0 && (five[i / 32] >> (i % 32) & 1));
            store_power(p, top);
        }
        if (p > 0) {
            uint32_t rest[LIMBS] = {0};
            unsigned __int128 quotient = 1;
            rest[n / 32] = 1u << (n % 32); /* 2^n = 5^p + rest */
            subtract_if_at_least(rest, five, size);
            for (int i = 0; i < 127; i++) {
                multiply(rest, 2, size);
                quotient = quotient << 1 | subtract_if_at_least(rest, five, size);
            }
            store_power(-p, quotient);
        }
    }
}

/* w 10^q correctly rounded into *out, by Eisel-Lemire as Go's strconv
 * writes it (w > 0).  Returns 0, and leaves *out, where the 128-bit product
 * cannot decide the rounding or the result is not a normal double. */
static int eisel_lemire(uint64_t w, int64_t q, int negative, double *out)
{
    const uint64_t *power;
    unsigned __int128 x;
    uint64_t hi, lo, mantissa, bits;
    int64_t exp2;
    int shift = __builtin_clzll(w), msb;
    if (q < POW5_MIN || q > POW5_MAX)
        return 0;
    power = kp_pow5 + 2 * (q - POW5_MIN);
    w <<= shift;
    exp2 = (217706 * q >> 16) + 64 + 1023 - shift; /* 217706 / 2^16 ~ log2(10) */
    x = (unsigned __int128)w * power[0];
    hi = (uint64_t)(x >> 64);
    lo = (uint64_t)x;
    if ((hi & 0x1FF) == 0x1FF && lo + w < w) { /* the power's low half may carry in */
        unsigned __int128 y = (unsigned __int128)w * power[1];
        uint64_t merged_lo = lo + (uint64_t)(y >> 64), merged_hi = hi + (merged_lo < lo);
        if ((merged_hi & 0x1FF) == 0x1FF && merged_lo + 1 == 0 && (uint64_t)y + w < w)
            return 0;
        hi = merged_hi;
        lo = merged_lo;
    }
    msb = (int)(hi >> 63);
    mantissa = hi >> (msb + 9);
    exp2 -= 1 ^ msb;
    if (lo == 0 && (hi & 0x1FF) == 0 && (mantissa & 3) == 1) /* halfway, or just above it */
        return 0;
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >> 53) {
        mantissa >>= 1;
        exp2++;
    }
    if (exp2 < 1 || exp2 > 0x7FE)
        return 0;
    bits = (uint64_t)negative << 63 | (uint64_t)exp2 << 52 | (mantissa & ((1ULL << 52) - 1));
    memcpy(out, &bits, sizeof bits);
    return 1;
}

/* Past the '\n' of a comment line; NULL if the line holds a byte that is
 * not printable ASCII. */
static const char *skip_comment(const char *p, const char *end)
{
    for (; p < end && *p != '\n'; p++)
        if (!PRINTABLE(*p))
            return NULL;
    return p < end ? p + 1 : p;
}

/* Past a timestamp at p, with its YYYYMMDDHHMM in *digits; NULL if none. */
static const char *scan_stamp(const char *p, const char *end, int64_t *digits)
{
    static const char pattern[] = "dddd-dd-ddTdd:dd";
    int64_t value = 0;
    if (end - p < (ptrdiff_t)sizeof pattern) /* the pattern and a 'Z' */
        return NULL;
    for (size_t i = 0; i + 1 < sizeof pattern; i++) {
        if (pattern[i] == 'd') {
            if (!DIGIT(p[i]))
                return NULL;
            value = value * 10 + (p[i] - '0');
        } else if (p[i] != pattern[i]) {
            return NULL;
        }
    }
    p += sizeof pattern - 1;
    if (end - p >= 3 && p[0] == ':' && p[1] == '0' && p[2] == '0')
        p += 3;
    if (p == end || *p != 'Z')
        return NULL;
    *digits = value;
    return p + 1;
}

/* Counts digit c into *significant unless it is a leading zero, and
 * appends it to *w while *w holds fewer than 19 digits. */
static void take_digit(char c, uint64_t *w, int64_t *significant)
{
    if (*significant || c != '0') {
        if (*significant < 19)
            *w = 10 * *w + (uint64_t)(c - '0');
        ++*significant;
    }
}

/* Past a number at p, with its value in *out; NULL if p holds none or its
 * value is not finite. */
static const char *scan_number(const char *p, const char *end, double *out)
{
    const char *q = p, *start;
    uint64_t w = 0; /* the first 19 significant digits */
    int64_t significant = 0, exp10 = 0, e = 0;
    ptrdiff_t digits;
    int negative = 0, exp_negative = 0;
    char *stop;
    double value;
    if (q < end && (*q == '+' || *q == '-'))
        negative = *q++ == '-';
    for (start = q; q < end && DIGIT(*q); q++)
        take_digit(*q, &w, &significant);
    digits = q - start;
    if (q < end && *q == '.') {
        for (start = ++q; q < end && DIGIT(*q); q++)
            take_digit(*q, &w, &significant);
        digits += q - start;
        exp10 = -(q - start);
    }
    if (digits == 0)
        return NULL;
    if (q < end && (*q == 'e' || *q == 'E')) {
        if (++q < end && (*q == '+' || *q == '-'))
            exp_negative = *q++ == '-';
        for (start = q; q < end && DIGIT(*q); q++)
            if (e < 1000000) /* past any double's exponent either way */
                e = 10 * e + (*q - '0');
        if (q == start)
            return NULL;
        exp10 += exp_negative ? -e : e;
    }
    if (significant <= 19) {
        if (w == 0) {
            *out = negative ? -0.0 : 0.0;
            return q;
        }
        if (eisel_lemire(w, exp10, negative, out))
            return q;
    }
    value = strtod(p, &stop);
    if (stop != q || !isfinite(value)) /* a locale's other decimal point stops early */
        return NULL;
    *out = value;
    return q;
}

/* Past the '\n' that ends a record at p (or at the end); NULL if p is
 * anything else. */
static const char *end_record(const char *p, const char *end)
{
    if (p == end)
        return p;
    return *p == '\n' ? p + 1 : NULL;
}

/* Past the ',' at p; NULL if p holds none. */
static const char *comma(const char *p, const char *end)
{
    return p < end && *p == ',' ? p + 1 : NULL;
}

/* The rows of CSV lines of cols numbers and a timestamp each, the stamp
 * first (t,v1,...,vn) or, if stamp_last, last (v1,...,vn,t): for row r,
 * its 1-based line, its time's YYYYMMDDHHMM, and its cols values with a
 * present flag each (an empty field is a gap: NaN and 0).  Returns the row
 * count, or -1 if the buffer leaves the grammar or holds more than capacity
 * rows. */
int64_t kp_scan_rows(const char *buf, int64_t len, int64_t cols, int64_t stamp_last,
                     int64_t capacity, int64_t *line_nos, int64_t *stamps, double *values,
                     uint8_t *present)
{
    const uint64_t nan_bits = 0x7ff8000000000000ULL; /* Python's math.nan */
    const char *p = buf, *end = buf + len;
    int64_t rows = 0, line_no = 0;
    double gap;
    memcpy(&gap, &nan_bits, sizeof gap);
    while (p < end) {
        double *value;
        uint8_t *flag;
        line_no++;
        if (*p == '\n') {
            p++;
            continue;
        }
        if (*p == '#') {
            if (!(p = skip_comment(p, end)))
                return -1;
            continue;
        }
        if (rows == capacity || (!stamp_last && !(p = scan_stamp(p, end, &stamps[rows]))))
            return -1;
        value = values + rows * cols;
        flag = present + rows * cols;
        for (int64_t j = 0; j < cols; j++) {
            if ((j > 0 || !stamp_last) && !(p = comma(p, end)))
                return -1;
            if (p == end || *p == ',' || *p == '\n') {
                value[j] = gap;
                flag[j] = 0;
            } else if ((p = scan_number(p, end, &value[j]))) {
                flag[j] = 1;
            } else {
                return -1;
            }
        }
        if (stamp_last && !((p = comma(p, end)) && (p = scan_stamp(p, end, &stamps[rows]))))
            return -1;
        if (!(p = end_record(p, end)))
            return -1;
        line_nos[rows++] = line_no;
    }
    return rows;
}

/* floor(e log10(2)), floor(log10(3/4 2^e)) and floor(e log2(10)), exact
 * over the exponents of doubles (Java's MathUtils). */
static int64_t flog10pow2(int64_t e) { return e * 661971961083LL >> 41; }
static int64_t flog10three_quarters_pow2(int64_t e) { return (e * 661971961083LL - 274743187321LL) >> 41; }
static int64_t flog2pow10(int64_t e) { return e * 913124641741LL >> 38; }

#define MASK63 ((1ULL << 63) - 1)

/* g cp / 2^127, rounded to odd, for g = g1 2^63 + g0. */
static uint64_t round_to_odd(uint64_t g1, uint64_t g0, uint64_t cp)
{
    unsigned __int128 x = (unsigned __int128)g0 * cp, y = (unsigned __int128)g1 * cp;
    uint64_t z = ((uint64_t)y >> 1) + (uint64_t)(x >> 64);
    uint64_t vbp = (uint64_t)(y >> 64) + (z >> 63);
    return vbp | ((z & MASK63) + MASK63) >> 63;
}

/* The decimal f 10^*e10 that Python's repr picks for c 2^q (c > 0): of
 * the decimals that round to it, those of fewest digits, and of those the
 * nearest, ties to an even last digit.  Schubfach, as Java's
 * DoubleToDecimal.toDecimal, except that one digit is enough. */
static uint64_t to_decimal(int64_t q, uint64_t c, int64_t *e10)
{
    const uint64_t *power;
    unsigned __int128 g;
    uint64_t out = c & 1, cb = c << 2, cbr = cb + 2, cbl, g1, g0, vb, vbl, vbr, s, t;
    int64_t k, h, cmp;
    int uin, win;
    if (c != 1ULL << 52 || q == -1074) {
        cbl = cb - 2;
        k = flog10pow2(q);
    } else { /* the double below is nearer than the one above */
        cbl = cb - 1;
        k = flog10three_quarters_pow2(q);
    }
    h = q + flog2pow10(-k) + 2;
    /* g = floor(10^-k 2^r) + 1 with r such that 2^125 <= g < 2^126 */
    power = kp_pow5 + 2 * (-k - POW5_MIN);
    g = (((unsigned __int128)power[0] << 64 | power[1]) >> 2) + 1;
    g1 = (uint64_t)(g >> 63);
    g0 = (uint64_t)g & MASK63;
    vb = round_to_odd(g1, g0, cb << h);
    vbl = round_to_odd(g1, g0, cbl << h);
    vbr = round_to_odd(g1, g0, cbr << h);
    s = vb >> 2;
    *e10 = k;
    if (s >= 10) { /* one digit fewer: at most one of sp10 and tp10 rounds to c 2^q */
        uint64_t sp10 = s / 10 * 10, tp10 = sp10 + 10;
        int upin = vbl + out <= sp10 << 2, wpin = (tp10 << 2) + out <= vbr;
        if (upin != wpin)
            return upin ? sp10 : tp10;
    }
    t = s + 1;
    uin = vbl + out <= s << 2;
    win = (t << 2) + out <= vbr;
    if (uin != win)
        return uin ? s : t;
    cmp = (int64_t)(vb - ((s + t) << 1));
    return cmp < 0 || (cmp == 0 && (s & 1) == 0) ? s : t;
}

/* "00" to "99", two bytes each. */
static const char PAIRS[] =
    "0001020304050607080910111213141516171819"
    "2021222324252627282930313233343536373839"
    "4041424344454647484950515253545556575859"
    "6061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* repr(x) at o (at most 24 bytes); returns the byte after it. */
static char *format_double(double x, char *o)
{
    uint64_t bits, c, f;
    int64_t biased, e10 = 0, point;
    char digits[20];
    const char *d;
    int n = 0;
    memcpy(&bits, &x, sizeof bits);
    biased = (int64_t)(bits >> 52 & 0x7FF);
    c = bits & ((1ULL << 52) - 1);
    if (biased == 0x7FF) {
        const char *text = c ? "nan" : bits >> 63 ? "-inf" : "inf";
        memcpy(o, text, strlen(text));
        return o + strlen(text);
    }
    if (bits >> 63)
        *o++ = '-';
    if (biased == 0 && c == 0) {
        memcpy(o, "0.0", 3);
        return o + 3;
    }
    if (biased == 0) {
        f = to_decimal(-1074, c, &e10);
    } else {
        int64_t shift = 1075 - biased;
        c |= 1ULL << 52;
        if (0 < shift && shift < 53 && (c >> shift) << shift == c) /* an integer */
            f = c >> shift;
        else
            f = to_decimal(-shift, c, &e10);
    }
    for (; f % 10 == 0; f /= 10)
        e10++;
    for (; f >= 100; f /= 100) {
        n += 2;
        memcpy(digits + sizeof digits - n, PAIRS + 2 * (f % 100), 2);
    }
    if (f >= 10) {
        n += 2;
        memcpy(digits + sizeof digits - n, PAIRS + 2 * f, 2);
    } else {
        digits[sizeof digits - ++n] = (char)('0' + f);
    }
    d = digits + sizeof digits - n;
    point = e10 + n; /* x = 0.d 10^point */
    if (point < -3 || point > 16) {
        int64_t exp10 = point - 1;
        *o++ = d[0];
        if (n > 1) {
            *o++ = '.';
            memcpy(o, d + 1, (size_t)n - 1);
            o += n - 1;
        }
        *o++ = 'e';
        *o++ = exp10 < 0 ? '-' : '+';
        if (exp10 < 0)
            exp10 = -exp10;
        if (exp10 >= 100)
            *o++ = (char)('0' + exp10 / 100);
        *o++ = (char)('0' + exp10 / 10 % 10);
        *o++ = (char)('0' + exp10 % 10);
    } else if (point <= 0) {
        memcpy(o, "0.000", (size_t)(2 - point));
        o += 2 - point;
        memcpy(o, d, (size_t)n);
        o += n;
    } else if (point < n) {
        memcpy(o, d, (size_t)point);
        o += point;
        *o++ = '.';
        memcpy(o, d + point, (size_t)(n - point));
        o += n - point;
    } else {
        memcpy(o, d, (size_t)n);
        o += n;
        memset(o, '0', (size_t)(point - n));
        o += point - n;
        memcpy(o, ".0", 2);
        o += 2;
    }
    return o;
}

/* Rows of cells as CSV lines at out, which holds at least
 * rows (25 cols + stamp_width + 2) bytes: row r is its stamp (the
 * stamp_width bytes at stamps + r stamp_width, up to a NUL) and the cols
 * values at values + r cols, stamp first (t,v1,...,vn) or, if stamp_last,
 * last (v1,...,vn,t).  A value whose present flag is 0 is an empty cell;
 * present NULL means every value is present.  Returns the bytes written. */
int64_t kp_format_rows(const double *values, const uint8_t *present, int64_t rows,
                       int64_t cols, const char *stamps, int64_t stamp_width,
                       int64_t stamp_last, char *out)
{
    char *o = out;
    for (int64_t r = 0; r < rows; r++) {
        const char *stamp = stamps + r * stamp_width;
        int64_t width = (int64_t)strnlen(stamp, (size_t)stamp_width);
        if (!stamp_last) {
            memcpy(o, stamp, (size_t)width);
            o += width;
        }
        for (int64_t j = r * cols; j < (r + 1) * cols; j++) {
            if (j > r * cols || !stamp_last)
                *o++ = ',';
            if (!present || present[j])
                o = format_double(values[j], o);
        }
        if (stamp_last) {
            *o++ = ',';
            memcpy(o, stamp, (size_t)width);
            o += width;
        }
        *o++ = '\n';
    }
    return o - out;
}
