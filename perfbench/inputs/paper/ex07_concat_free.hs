% Example 7 of the paper with every argument free: unsafe.
concat([X|Y], Z, [X|U]) :- concat(Y, Z, U).
concat([], Z, Z).
?- concat(A, B, C).
