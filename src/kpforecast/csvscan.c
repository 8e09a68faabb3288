/* A strict scanner for the package's canonical CSV files.
 *
 * ``kp_scan_measurements`` reads a measurement file (solar wind, Dst or
 * Kp: ``t,v1,...,vn`` per record) and ``kp_scan_dataset`` the rows of a
 * dataset CSV after its header (``v1,...,vk,t``).  Each returns the arrays
 * the Python parsers of ``ingest`` and ``fusion`` build, or -1 as soon as
 * the bytes leave the grammar below.  The caller then parses the whole file
 * with those Python parsers, which stay the reference and word every error,
 * so a value read here is the value they read and a fault is reported as
 * they report it.
 *
 * The grammar:
 *   - a line ends in '\n', or at the end of the buffer; an empty line, and
 *     a line that starts with '#', is skipped;
 *   - every other byte is printable ASCII (0x20 to 0x7e), so a '\r', a tab
 *     or a byte of a multi-byte character is -1;
 *   - t is YYYY-MM-DDTHH:MMZ or YYYY-MM-DDTHH:MM:00Z, returned as the
 *     number YYYYMMDDHHMM; the calendar check is the caller's;
 *   - a number matches [+-]?(d+(.d*)?|.d+)([eE][+-]?d+)? with ASCII
 *     digits d, and strtod converts it; strtod rounds correctly, as
 *     Python's float() does, and its result must be finite;
 *   - an empty field of a measurement record is a gap: NaN, not present;
 *   - anything else is -1: a wrong cell count, a blank before or after a
 *     cell, 1_0, 0x1p3, nan, inf, 1e400.
 *
 * strtod reads on until the number ends, so the byte at buf[len] must be
 * readable and not part of a number: a Python bytes object ends in a NUL.
 * The functions touch no Python object, so they run with the interpreter
 * lock released.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define DIGIT(c) ((unsigned)((c) - '0') < 10u)
#define PRINTABLE(c) ((unsigned char)(c) >= 0x20 && (unsigned char)(c) <= 0x7e)

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

/* Past a number at p, with its value in *out; NULL if p holds none or its
 * value is not finite. */
static const char *scan_number(const char *p, const char *end, double *out)
{
    const char *q = p, *start;
    ptrdiff_t digits;
    char *stop;
    double value;
    if (q < end && (*q == '+' || *q == '-'))
        q++;
    for (start = q; q < end && DIGIT(*q); q++)
        ;
    digits = q - start;
    if (q < end && *q == '.') {
        for (start = ++q; q < end && DIGIT(*q); q++)
            ;
        digits += q - start;
    }
    if (digits == 0)
        return NULL;
    if (q < end && (*q == 'e' || *q == 'E')) {
        if (++q < end && (*q == '+' || *q == '-'))
            q++;
        for (start = q; q < end && DIGIT(*q); q++)
            ;
        if (q == start)
            return NULL;
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

/* The records of a measurement file of n value fields: for record r, its
 * 1-based line, its time's YYYYMMDDHHMM, and its n values with a present
 * flag each (a gap is NaN and 0).  Returns the record count, or -1 if the
 * buffer leaves the grammar or holds more than capacity records. */
int64_t kp_scan_measurements(const char *buf, int64_t len, int64_t n, int64_t capacity,
                             int64_t *line_nos, int64_t *stamps, double *values,
                             uint8_t *present)
{
    const uint64_t nan_bits = 0x7ff8000000000000ULL; /* Python's math.nan */
    const char *p = buf, *end = buf + len;
    int64_t records = 0, line_no = 0;
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
        if (records == capacity || !(p = scan_stamp(p, end, &stamps[records])))
            return -1;
        value = values + records * n;
        flag = present + records * n;
        for (int64_t j = 0; j < n; j++) {
            if (p == end || *p != ',')
                return -1;
            if (++p == end || *p == ',' || *p == '\n') {
                value[j] = gap;
                flag[j] = 0;
            } else if ((p = scan_number(p, end, &value[j]))) {
                flag[j] = 1;
            } else {
                return -1;
            }
        }
        if (!(p = end_record(p, end)))
            return -1;
        line_nos[records++] = line_no;
    }
    return records;
}

/* The rows of a dataset CSV of width cells each, read after its header:
 * for row r, its width - 1 numbers ([features | target]) and its time's
 * YYYYMMDDHHMM.  Returns the row count, or -1 if the buffer leaves the
 * grammar or holds more than capacity rows. */
int64_t kp_scan_dataset(const char *buf, int64_t len, int64_t width, int64_t capacity,
                        double *values, int64_t *stamps)
{
    const char *p = buf, *end = buf + len;
    int64_t rows = 0;
    while (p < end) {
        double *value;
        if (*p == '\n') {
            p++;
            continue;
        }
        if (*p == '#') {
            if (!(p = skip_comment(p, end)))
                return -1;
            continue;
        }
        if (rows == capacity)
            return -1;
        value = values + rows * (width - 1);
        for (int64_t j = 0; j < width - 1; j++) {
            if (!(p = scan_number(p, end, &value[j])) || p == end || *p != ',')
                return -1;
            p++;
        }
        if (!(p = scan_stamp(p, end, &stamps[rows])) || !(p = end_record(p, end)))
            return -1;
        rows++;
    }
    return rows;
}
