//! Recorded seed-0 statistics digests (`check::digest`) of every
//! operation at its full budget. Regenerate with `--print-digests` only
//! when a change is meant to alter simulated statistics.

/// `(label, member, instructions, digest)`.
const SEED0: &[(&str, &str, u64, u64)] = &[
    ("single", "gzip", 6000000, 0x0fb812719b697531),
    ("single", "swim", 6000000, 0xa780d41a8e939f71),
    ("single", "mgrid", 6000000, 0xbc2fd140bc9c91ed),
    ("single", "vpr", 6000000, 0x61e514f89c43cd8a),
    ("single", "gcc", 6000000, 0x51eebd4425c69512),
    ("single", "art", 6000000, 0x44942237cf7f6822),
    ("single", "mcf", 6000000, 0x699309d26e0c84a2),
    ("single", "crafty", 6000000, 0x8c21dc9a419ed446),
    ("single", "ammp", 6000000, 0xf9a61872614432d7),
    ("single", "parser", 6000000, 0x5bd1df8992d94442),
    ("single", "vortex", 6000000, 0xec97b0e60a27a599),
    ("single", "bzip2", 6000000, 0x59df5cd074ef96e2),
    ("single", "twolf", 6000000, 0xf3a182727c3cba8c),
    ("single", "bh", 6000000, 0x553e1f827b69cfed),
    ("single", "bisort", 6000000, 0xadf071244d3346f9),
    ("single", "em3d", 6000000, 0x05c1226fa29f08a3),
    ("single", "health", 6000000, 0xe2d79dae2408b7ad),
    ("single", "mst", 6000000, 0x74c777a08acea0ca),
    ("migration", "gzip", 6000000, 0x34be7895e567be7d),
    ("migration", "swim", 6000000, 0xa780d41a8e939f71),
    ("migration", "mgrid", 6000000, 0xc2c08cbb51a5f6b0),
    ("migration", "vpr", 6000000, 0x9361b6b7343ff807),
    ("migration", "gcc", 6000000, 0x9bb762bf9b81e716),
    ("migration", "art", 6000000, 0x8dcb2af816774b0c),
    ("migration", "mcf", 6000000, 0xc3112aefe19ef3b7),
    ("migration", "crafty", 6000000, 0x4bfb7ddb1c77d471),
    ("migration", "ammp", 6000000, 0xc510222a4e322fba),
    ("migration", "parser", 6000000, 0x9d39ec4fe45a2be6),
    ("migration", "vortex", 6000000, 0x30c18e5f877c958c),
    ("migration", "bzip2", 6000000, 0x36ca70a3f46ef29d),
    ("migration", "twolf", 6000000, 0x2e28ac350ade1885),
    ("migration", "bh", 6000000, 0x46bc9801a154e423),
    ("migration", "bisort", 6000000, 0x20f52ee872930ec2),
    ("migration", "em3d", 6000000, 0x4c1a9fdc96477d89),
    ("migration", "health", 6000000, 0x7081ab75d74ed1b4),
    ("migration", "mst", 6000000, 0xc7f4768d6cc28c20),
    ("mesi", "vortex", 6000000, 0x5a74172e2e379911),
    ("mesi", "em3d", 6000000, 0xf28e56f958913fe2),
    ("mesi", "twolf", 6000000, 0x1a1bdf940e25318c),
    ("dragon", "vortex", 6000000, 0xd88db419e7e41537),
    ("dragon", "em3d", 6000000, 0x9d06aa9d3f5cb847),
    ("dragon", "twolf", 6000000, 0x41ecd1d45a06710a),
];

/// The recorded digest of `label/member` at `instructions`, if any.
pub fn lookup(label: &str, member: &str, instructions: u64) -> Option<u64> {
    SEED0
        .iter()
        .find(|&&(l, m, i, _)| l == label && m == member && i == instructions)
        .map(|&(_, _, _, d)| d)
}
