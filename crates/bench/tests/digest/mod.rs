//! The `(length, FNV-1a 64)` digest that the golden tests pin an output
//! with when it is too large to commit.

/// `(length, FNV-1a 64)` of a text.
pub fn len_and_fnv1a(text: &str) -> (usize, u64) {
    let fnv = text.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    (text.len(), fnv)
}
