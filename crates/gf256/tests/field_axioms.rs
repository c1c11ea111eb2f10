//! Property-based verification of the GF(2^8) field axioms.

use gf256::Gf256;
use proptest::prelude::*;

fn elem() -> impl Strategy<Value = Gf256> {
    any::<u8>().prop_map(Gf256::new)
}

fn nonzero() -> impl Strategy<Value = Gf256> {
    (1u8..=255).prop_map(Gf256::new)
}

proptest! {
    #[test]
    fn addition_commutative_associative(a in elem(), b in elem(), c in elem()) {
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn multiplication_commutative_associative(a in elem(), b in elem(), c in elem()) {
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn distributivity(a in elem(), b in elem(), c in elem()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn inverse_cancels(a in nonzero()) {
        prop_assert_eq!(a * a.inv().unwrap(), Gf256::ONE);
    }

    #[test]
    fn division_is_multiplication_by_inverse(a in elem(), b in nonzero()) {
        prop_assert_eq!(a / b, a * b.inv().unwrap());
        prop_assert_eq!((a / b) * b, a);
    }

    #[test]
    fn pow_homomorphism(a in nonzero(), e1 in 0u32..300, e2 in 0u32..300) {
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn mul_acc_slice_is_linear(
        coeff in elem(),
        data in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut dst = vec![0u8; data.len()];
        Gf256::mul_acc_slice(coeff, &data, &mut dst);
        for (d, s) in dst.iter().zip(&data) {
            prop_assert_eq!(Gf256::new(*d), coeff * Gf256::new(*s));
        }
        // Accumulating the same thing again cancels (char 2).
        let mut dst2 = dst.clone();
        Gf256::mul_acc_slice(coeff, &data, &mut dst2);
        prop_assert!(dst2.iter().all(|&b| b == 0));
    }
}
