#!/usr/bin/env python3
"""Genre alphabet, multi-hot encoding, and 5-movie user windows.

Builds a toy MovieLens-format pair of CSV files, loads them, and shows
how rating rows turn into a table of per-user 5-movie windows: genre-less
movies are skipped, users with fewer than five usable events drop out,
and only the five most recent events survive.
"""

import tempfile
from pathlib import Path

from genreseq import (
    GENRES,
    build_sequences,
    encode_genres,
    genre_index,
    load_movies,
    load_ratings,
    support_names,
)

print("the fixed 19-genre alphabet:")
print(" ", ", ".join(GENRES))
print("index of 'Action':", genre_index("Action"), " index of 'Western':", genre_index("Western"))

vec = encode_genres(["Romance", "Action", "Comedy"])
print("\nmulti-hot for a romance/action/comedy movie:")
print(" ", vec.astype(int).tolist())
print("  decoded back:", support_names(vec))

# --- a tiny MovieLens-format dataset ------------------------------------
with tempfile.TemporaryDirectory(prefix="genreseq_demo_") as tmp:
    workdir = Path(tmp)
    (workdir / "movies.csv").write_text(
        "movieId,title,genres\n"
        "1,First (1990),Action|Thriller\n"
        '2,"Second, The (1991)",Comedy\n'
        "3,Third (1992),Drama|Romance\n"
        "4,Fourth (1993),Horror\n"
        "5,Fifth (1994),Sci-Fi|Action\n"
        "6,Sixth (1995),Western\n"
        "7,Empty (1996),(no genres listed)\n"
    )
    (workdir / "ratings.csv").write_text(
        "userId,movieId,rating,timestamp\n"
        # user 1 rates seven movies; the two oldest fall out of the window
        "1,1,4.0,100\n1,2,3.5,200\n1,3,5.0,300\n1,4,2.0,400\n"
        "1,5,4.5,500\n1,6,3.0,600\n1,1,4.0,700\n"
        # user 2 rated the genre-less movie; only four usable events remain
        "2,1,3.0,100\n2,2,3.0,200\n2,3,3.0,300\n2,4,3.0,400\n2,7,3.0,500\n"
    )

    movies = load_movies(workdir / "movies.csv")
    print(f"\nloaded {movies.ids.size} movies; skipped {movies.skipped_no_genre} without genres")

    ratings = load_ratings(workdir / "ratings.csv")
    print(f"loaded {len(ratings)} rating rows as columns {ratings.dtype.names} "
          "(in file order; windowing sorts them)")

    users, dropped = build_sequences(ratings, movies)
print(f"built {len(users)} user window(s); dropped {dropped} user(s) below the 5-movie bar")

print(f"\nuser {users.user_id[0]} window (five most recent):")
for ts, movie, rating, row in zip(users.timestamp[0], users.movie_id[0], users.rating[0], users.genres[0]):
    print(f"  t={ts}  movie={movie}  rating={rating}  genres={', '.join(support_names(row))}")
