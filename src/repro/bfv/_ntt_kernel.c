/* Native HE datapath: batched negacyclic NTT, key-switch multiply-
 * accumulate, fused CRT compose -> gadget digits -> residues, and the
 * decrypt scale-and-round.
 *
 * Compiled on demand by repro.bfv.native (plain `cc -O3 -shared -fPIC`);
 * repro.bfv.ntt_batch and repro.bfv.scheme fall back to their numpy and
 * object-integer paths whenever no C compiler is available.  Every kernel
 * is bit-identical to its fallback.  The NTT keeps values lazily in
 * [0, 4p) between butterfly stages (Harvey's bound) and fully reduces into
 * [0, p) once at the end, so the final residues match the reference
 * NttContext exactly.  The CRT kernels work on q in two 64-bit words
 * (unsigned __int128); the caller only routes bases with k*q < 2^128 here.
 */
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

static inline uint64_t mulhi64(uint64_t a, uint64_t b) {
    return (uint64_t)(((u128)a * b) >> 64);
}

/* Shoup lazy product: x*w mod p in [0, 2p), with wsh = floor(w * 2^64 / p). */
static inline uint64_t shoup_mul(uint64_t x, uint64_t w, uint64_t wsh, uint64_t p) {
    uint64_t q = mulhi64(x, wsh);
    return x * w - q * p;
}

/* Forward transform of a (k, B, n) residue stack, in place.
 *
 * perm:        bit-reversal permutation, length n
 * psi/psi_sh:  (k, n) psi-power premultiply tables, stored in perm order
 * tw/tw_sh:    (k, n-1) stage twiddles, stage s at offset 2^s - 1
 * p_arr:       (k) moduli (< 2^30 so the lazy bound 4p stays far from 2^64)
 * scratch:     (n) workspace shared across rows
 */
void ntt_forward(uint64_t *data, const int64_t *perm,
                 const uint64_t *psi, const uint64_t *psi_sh,
                 const uint64_t *tw, const uint64_t *tw_sh,
                 const uint64_t *p_arr, long k, long B, long n,
                 uint64_t *scratch) {
    for (long i = 0; i < k; ++i) {
        const uint64_t p = p_arr[i];
        const uint64_t twop = 2 * p;
        const uint64_t *psi_i = psi + i * n;
        const uint64_t *psi_sh_i = psi_sh + i * n;
        const uint64_t *tw_i = tw + i * (n - 1);
        const uint64_t *tw_sh_i = tw_sh + i * (n - 1);
        for (long b = 0; b < B; ++b) {
            uint64_t *row = data + (i * B + b) * n;
            memcpy(scratch, row, n * sizeof(uint64_t));
            /* bit-reverse gather fused with the psi premultiply -> [0, 2p) */
            for (long j = 0; j < n; ++j)
                row[j] = shoup_mul(scratch[perm[j]], psi_i[j], psi_sh_i[j], p);
            /* DIT stages, Harvey lazy: values stay in [0, 4p) */
            for (long half = 1; half < n; half <<= 1) {
                const uint64_t *w = tw_i + (half - 1);
                const uint64_t *wsh = tw_sh_i + (half - 1);
                for (long block = 0; block < n; block += 2 * half) {
                    uint64_t *even = row + block;
                    uint64_t *odd = even + half;
                    for (long j = 0; j < half; ++j) {
                        uint64_t x = even[j];
                        if (x >= twop) x -= twop;
                        uint64_t t = shoup_mul(odd[j], w[j], wsh[j], p);
                        even[j] = x + t;
                        odd[j] = x + twop - t;
                    }
                }
            }
            /* single deferred reduction into [0, p) */
            for (long j = 0; j < n; ++j) {
                uint64_t x = row[j];
                if (x >= twop) x -= twop;
                if (x >= p) x -= p;
                row[j] = x;
            }
        }
    }
}

/* Inverse transform: DIT stages with inverse twiddles, then one fused
 * multiply by n^-1 * psi^-j (iscale tables), natural order output. */
void ntt_inverse(uint64_t *data, const int64_t *perm,
                 const uint64_t *iscale, const uint64_t *iscale_sh,
                 const uint64_t *tw, const uint64_t *tw_sh,
                 const uint64_t *p_arr, long k, long B, long n,
                 uint64_t *scratch) {
    for (long i = 0; i < k; ++i) {
        const uint64_t p = p_arr[i];
        const uint64_t twop = 2 * p;
        const uint64_t *sc_i = iscale + i * n;
        const uint64_t *sc_sh_i = iscale_sh + i * n;
        const uint64_t *tw_i = tw + i * (n - 1);
        const uint64_t *tw_sh_i = tw_sh + i * (n - 1);
        for (long b = 0; b < B; ++b) {
            uint64_t *row = data + (i * B + b) * n;
            memcpy(scratch, row, n * sizeof(uint64_t));
            for (long j = 0; j < n; ++j)
                row[j] = scratch[perm[j]];
            for (long half = 1; half < n; half <<= 1) {
                const uint64_t *w = tw_i + (half - 1);
                const uint64_t *wsh = tw_sh_i + (half - 1);
                for (long block = 0; block < n; block += 2 * half) {
                    uint64_t *even = row + block;
                    uint64_t *odd = even + half;
                    for (long j = 0; j < half; ++j) {
                        uint64_t x = even[j];
                        if (x >= twop) x -= twop;
                        uint64_t t = shoup_mul(odd[j], w[j], wsh[j], p);
                        even[j] = x + t;
                        odd[j] = x + twop - t;
                    }
                }
            }
            for (long j = 0; j < n; ++j) {
                uint64_t x = shoup_mul(row[j] >= twop ? row[j] - twop : row[j],
                                       sc_i[j], sc_sh_i[j], p);
                if (x >= p) x -= p;
                row[j] = x;
            }
        }
    }
}

/* x mod p for any 64-bit x, with mu = floor(2^64 / p): the quotient
 * estimate is low by at most one, so one conditional subtraction ends
 * in [0, p). */
static inline uint64_t barrett_reduce(uint64_t x, uint64_t p, uint64_t mu) {
    uint64_t r = x - mulhi64(x, mu) * p;
    return r >= p ? r - p : r;
}

/* Multiply-accumulate over the term axis of (k, B, n) residue stacks:
 *
 *     out[i, j] = sum_b a[i, b, idx[j]] * w[i, b, j]  mod p_i
 *
 * idx is NULL for the identity gather.  Operands are reduced residues
 * below p_i < 2^30 (the engine's modulus bound), so each product is one
 * 32x32->64 multiply, which the compiler vectorises over j.  Products
 * accumulate unreduced in uint64; the row is reduced only when one more
 * term could overflow -- floor((2^64 - 1 - (p-1)) / (p-1)^2) terms after
 * a reduction -- and once at the end.  Strides are in elements; rows are
 * contiguous.
 */
void mac_accumulate(const uint64_t *a, long a_limb, long a_row,
                    const uint64_t *w, long w_limb, long w_row,
                    const int64_t *idx, const uint64_t *p_arr,
                    const uint64_t *mu_arr, long k, long B, long n,
                    uint64_t *out) {
    for (long i = 0; i < k; ++i) {
        const uint64_t p = p_arr[i], mu = mu_arr[i], pm1 = p - 1;
        const long chunk = pm1 <= 1 ? B : (long)((UINT64_MAX - pm1) / (pm1 * pm1));
        uint64_t *acc = out + i * n;
        memset(acc, 0, n * sizeof(uint64_t));
        long pending = 0;
        for (long b = 0; b < B; ++b) {
            if (pending == chunk) {
                for (long j = 0; j < n; ++j)
                    acc[j] = barrett_reduce(acc[j], p, mu);
                pending = 0;
            }
            const uint64_t *ar = a + i * a_limb + b * a_row;
            const uint64_t *wr = w + i * w_limb + b * w_row;
            if (idx) {
                for (long j = 0; j < n; ++j)
                    acc[j] += (uint64_t)(uint32_t)ar[idx[j]] * (uint32_t)wr[j];
            } else {
                for (long j = 0; j < n; ++j)
                    acc[j] += (uint64_t)(uint32_t)ar[j] * (uint32_t)wr[j];
            }
            ++pending;
        }
        for (long j = 0; j < n; ++j)
            acc[j] = barrett_reduce(acc[j], p, mu);
    }
}

/* CRT tables shared by the two-word kernels.
 *
 * p_arr:          (k) moduli
 * qinv/qinv_sh:   (k) (q/p_i)^-1 mod p_i and its Shoup quotient
 * punct:          (k, 2) q/p_i as (low, high) 64-bit words
 * q_words:        (2) q as (low, high)
 */
static inline u128 crt_compose(const uint64_t *x, long x_limb,
                               const uint64_t *p_arr, const uint64_t *qinv,
                               const uint64_t *qinv_sh, const uint64_t *punct,
                               u128 q, long k) {
    u128 s = 0;
    for (long i = 0; i < k; ++i) {
        const uint64_t p = p_arr[i];
        uint64_t t = shoup_mul(x[i * x_limb], qinv[i], qinv_sh[i], p);
        if (t >= p) t -= p;
        s += (u128)t * (((u128)punct[2 * i + 1] << 64) | punct[2 * i]);
    }
    while (s >= q) s -= q; /* s < k*q: at most k - 1 subtractions */
    return s;
}

/* Fused CRT compose -> base-2^bits digits -> per-limb residues.
 *
 * x is a (k, B, n) coefficient-domain stack; out is (k, B*D, n), where
 * row b*D + d of limb i holds digit d of polynomial b mod p_i (least
 * significant digit first), exactly as digit_decompose followed by
 * RnsBasis.decompose_stack lays them out.  bits <= 64 and D*bits covers q.
 *
 * Coefficients go through in tiles: the k*D output rows sit n words
 * apart, so writing all of them per coefficient would thrash one L1 set;
 * per tile, each row gets a contiguous run instead.
 */
#define CRT_TILE 256

void crt_digits(const uint64_t *x, long x_limb, long x_row,
                const uint64_t *p_arr, const uint64_t *qinv,
                const uint64_t *qinv_sh, const uint64_t *punct,
                const uint64_t *q_words, long k, long B, long n,
                long bits, long D, uint64_t *out) {
    const u128 q = ((u128)q_words[1] << 64) | q_words[0];
    const u128 mask = bits >= 64 ? (u128)UINT64_MAX : (((u128)1 << bits) - 1);
    const long limb_stride = B * D * n;
    /* Digits below every prime are their own residues. */
    int digits_reduced = bits < 64;
    for (long i = 0; i < k; ++i)
        if (bits >= 64 || ((uint64_t)1 << bits) > p_arr[i]) digits_reduced = 0;
    u128 value[CRT_TILE];
    uint64_t digit[CRT_TILE];
    for (long b = 0; b < B; ++b) {
        for (long j0 = 0; j0 < n; j0 += CRT_TILE) {
            const long len = n - j0 < CRT_TILE ? n - j0 : CRT_TILE;
            for (long j = 0; j < len; ++j)
                value[j] = crt_compose(x + b * x_row + j0 + j, x_limb, p_arr,
                                       qinv, qinv_sh, punct, q, k);
            for (long d = 0; d < D; ++d) {
                for (long j = 0; j < len; ++j) {
                    digit[j] = (uint64_t)(value[j] & mask);
                    value[j] >>= bits;
                }
                for (long i = 0; i < k; ++i) {
                    const uint64_t p = p_arr[i];
                    uint64_t *dst = out + i * limb_stride + (b * D + d) * n + j0;
                    if (digits_reduced)
                        memcpy(dst, digit, len * sizeof(uint64_t));
                    else
                        for (long j = 0; j < len; ++j)
                            dst[j] = digit[j] >= p ? digit[j] % p : digit[j];
                }
            }
        }
    }
}

/* Decrypt scale-and-round: out[j] = round(t * x_j / q) mod t, computed as
 * floor((2 t x + q) / 2q) mod t on the CRT-composed x_j in [0, q).  The
 * caller guarantees (2t + 1) * q < 2^128. */
void crt_scale_round(const uint64_t *x, long x_limb,
                     const uint64_t *p_arr, const uint64_t *qinv,
                     const uint64_t *qinv_sh, const uint64_t *punct,
                     const uint64_t *q_words, long k, long n, uint64_t t,
                     uint64_t *out) {
    const u128 q = ((u128)q_words[1] << 64) | q_words[0];
    for (long j = 0; j < n; ++j) {
        const u128 s = crt_compose(x + j, x_limb, p_arr, qinv, qinv_sh, punct, q, k);
        out[j] = (uint64_t)(((s * (2 * (u128)t) + q) / (2 * q)) % t);
    }
}
