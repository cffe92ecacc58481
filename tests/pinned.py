"""Regression constants frozen from independent derivations.

SINGLETON_COUNTS were computed twice before being pinned: once by the
reduced-universe enumeration oracle (grids over only the factors each row
mentions) and once by the full sweep over all 429,981,696 profiles (the
slow suite re-runs that sweep on demand).  The remaining values were
computed by this implementation and frozen to catch regressions.
"""

FULL_SPACE = 429_981_696

# Model count of each indicator's row, i.e. |rightPolarity({i})|.
SINGLETON_COUNTS = {
    "ISTJ": 14_340_096,
    "ISFJ": 3_511_296,
    "INFJ": 1_244_160,
    "INTJ": 4_976_640,
    "ISTP": 11_150_784,
    "ISFP": 3_297_024,
    "INFP": 1_244_160,
    "INTP": 3_732_480,
    "ESTP": 11_980_800,
    "ESFP": 2_626_560,
    "ENFP": 1_244_160,
    "ENTP": 4_976_640,
    "ESTJ": 11_150_784,
    "ESFJ": 3_297_024,
    "ENFJ": 1_244_160,
    "ENTJ": 3_732_480,
}

# Base-12 index of the norm profile (h+ s+ e- hy- k- p- d+ m+); the digit
# string is 5,5,3,3,3,3,5,5 with h most significant.
NORM_PROFILE_INDEX = 194_903_345

# The ISTJ and ESTP rows force disjoint hy families, so their set has an
# empty polarity.
PAIR_ISTJ_ESTP_COUNT = 0

# Right-polarity kernel of the built-in interpretation: number of classes
# of indicator sets with identical polarities, and how many of the 65,536
# sets have nonempty polarities at all.
KERNEL_CLASS_COUNT = 38
NONEMPTY_POLARITY_COUNT = 61

# The formal context of the built-in interpretation: the sixteen row sets cut
# the profile space into this many nonempty regions, carried as this many
# disjoint boxes in all.
REGION_COUNT = 37
REGION_BOX_COUNT = 154

# The same four numbers for tests/data/alt_interpretation.txt.
ALT_REGION_COUNT = 17
ALT_REGION_BOX_COUNT = 20
ALT_KERNEL_CLASS_COUNT = 18
ALT_NONEMPTY_POLARITY_COUNT = 17

# Nonempty polarities for perfbench/custom_interpretation.txt, whose entries
# carry negations.
CUSTOM_NONEMPTY_POLARITY_COUNT = 17

# Stable hash of the built-in rows' canonical serialization; changes only
# if the translation tables or the canonical renderer change.
BUILTIN_FINGERPRINT = (
    "f3eae8e1ffdc98a7a541a25d6a38908f2c8543234cd30762553d6e854c4d7f55"
)
