//! Pins the per-tile generator's stream bit for bit. Every tile's arbitration,
//! routing and traffic draws, and the RNG words inside checkpoints, come from
//! this stream, so a change here moves every simulated figure.

use hornet_net::rng::TileRng;

#[test]
fn first_words_per_seed_are_pinned() {
    let expected: [(u64, [u64; 16]); 3] = [
        (
            0,
            [
                0x5BA451A4371C8E2E,
                0xF3A8BD8A3B3C6334,
                0xD9FB5141B1CF6B7D,
                0x139A3B217FFFAB21,
                0xB11F8C6B0F975062,
                0xBA02A5B0EC9D67DE,
                0x3DF50DDF2CB96A6F,
                0x10898427F98B47AC,
                0x831A1156BC83984B,
                0x392DFACE2F0A5BA4,
                0xB909AC4B627F298B,
                0xBF5F85C4503DB6A1,
                0xEAED86D9A389111E,
                0x0E288B2DF49BA4CA,
                0x40FDA9F191E89CD8,
                0xC40A8C7F9FA9EC98,
            ],
        ),
        (
            1,
            [
                0x7DC37D178D21B0C0,
                0xB70B96E1DAEC92FB,
                0x073CAB544D54D52E,
                0xCE256DEBC2DA9023,
                0xAE0E33980199E229,
                0x41D2A0FF45F49726,
                0x64A44CE73BCD7233,
                0x1BF89061F13452B1,
                0xA30146483FBAF619,
                0x3C7542F82AAB8E88,
                0x05C174DF85F933FA,
                0x870608FB78EA9D9B,
                0x33DA96AC6D12A3A8,
                0x6AA95926CADB1F8E,
                0x1012C1DD116C1A0A,
                0x3FC982B4F8367042,
            ],
        ),
        (
            u64::MAX,
            [
                0xF2347AABFA3513E4,
                0x39762E43A8E917DC,
                0xCACEAC88A7D1741B,
                0x98B4B11CBAFFFB02,
                0x59A00C046F306F50,
                0xFEC0F67A5F92C644,
                0xE693D80FD6F95BB0,
                0xDE07B8800859FDD4,
                0x8F555D4DA1CD553A,
                0x796CC127D7DE9904,
                0x3DB02C5D31597DB8,
                0xE50804D30F11978F,
                0xFC0B342885CE4F87,
                0x1715387F016AD3BE,
                0xBA1BADF04339933A,
                0xE30385745789EE8B,
            ],
        ),
    ];
    for (seed, words) in expected {
        let mut rng = TileRng::seed_from_u64(seed);
        let got: Vec<u64> = (0..16).map(|_| rng.next_u64()).collect();
        assert_eq!(got, words, "seed {seed}");
    }
}

#[test]
fn unit_draws_are_pinned() {
    let mut rng = TileRng::seed_from_u64(42);
    let sum: f64 = (0..1_000).map(|_| rng.f64()).sum();
    assert_eq!(sum.to_bits(), 0x407F78E294A21F61);
}

#[test]
fn inclusive_range_draws_are_pinned() {
    let mut rng = TileRng::seed_from_u64(7);
    let got: Vec<u64> = (0..64u64).map(|i| rng.range_inclusive(0..=i)).collect();
    assert_eq!(
        got,
        [
            0, 1, 1, 3, 3, 5, 6, 6, 3, 5, 2, 5, 2, 9, 3, 4, 12, 5, 18, 11, 14, 20, 2, 18, 11, 6, 5,
            25, 21, 14, 8, 25, 28, 14, 6, 3, 5, 33, 11, 9, 13, 33, 30, 15, 20, 31, 16, 34, 21, 35,
            26, 36, 43, 28, 6, 22, 5, 24, 22, 47, 43, 56, 39, 0,
        ]
    );
}

#[test]
fn shuffle_is_pinned() {
    let mut rng = TileRng::seed_from_u64(9);
    let mut v: Vec<u32> = (0..32).collect();
    rng.shuffle(&mut v);
    assert_eq!(
        v,
        [
            21, 20, 17, 4, 23, 10, 18, 24, 8, 15, 9, 29, 7, 12, 31, 0, 2, 5, 27, 30, 16, 14, 26,
            22, 25, 3, 13, 11, 19, 6, 1, 28,
        ]
    );
}

#[test]
fn state_round_trips() {
    let mut rng = TileRng::seed_from_u64(3);
    rng.next_u64();
    let state = rng.state();
    assert_eq!(
        state,
        [
            0x0D2EF1A68C0F1467,
            0x2510ACF3AA08234E,
            0x613F6CF19CC6A3AD,
            0x2ABC544921DEC077
        ]
    );
    let mut restored = TileRng::from_state(state);
    for _ in 0..8 {
        assert_eq!(restored.next_u64(), rng.next_u64());
    }
    // The all-zero state is xoshiro's fixed point; restoring maps it away.
    assert_ne!(TileRng::from_state([0; 4]).state(), [0; 4]);
}
