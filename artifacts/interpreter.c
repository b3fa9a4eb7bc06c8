/* Runtime interface of the inkfuse generated code. */
#include <stdbool.h>
#include <stdint.h>

typedef struct { const char* ptr; int64_t len; } ink_str_t;
typedef struct { void* data; } ink_vec_t;
typedef struct { ink_vec_t** cols; int64_t rows; } ink_chunk_t;
typedef struct { bool b; int32_t i32; int64_t i64; double f64; ink_str_t str; } ink_const_t;
typedef struct { int64_t off; } ink_offset_t;
typedef struct { void* table; } ink_agg_state_t;
typedef struct { void* table; } ink_join_state_t;
typedef struct { void* m; } ink_like_state_t;
typedef struct { void* set; } ink_inlist_state_t;
typedef struct { void* bucket; int64_t pos; } ink_match_iter_t;

uint64_t ink_hash(const char* key);
const char* ink_row_key(const char* row);
int64_t ink_row_key_len(const char* row);
int64_t ink_payload_off(const char* row);
char* ink_make_row(void* state, int64_t i);
char* ink_append_str(char* row, void* state, ink_str_t s);
char* ink_seal_key(void* state, char* row);
char* ink_agg_find_or_create(void* table, const char* key, uint64_t hash);
char* ink_agg_find_or_create_direct(void* table, const void* key);
char** ink_agg_find_or_create_batch(void* table, char** rows, int64_t n);
char** ink_agg_find_or_create_direct_batch(void* table, const void* keys, int64_t n);
void ink_join_insert(void* table, char* row, uint64_t hash);
void ink_join_insert_batch(void* table, char** rows, int64_t n);
void ink_join_prefetch_batch(void* table, char** rows, int64_t n);
bool ink_join_exists(void* table, const char* key);
ink_match_iter_t ink_join_lookup(void* table, const char* key);
char* ink_match_next(ink_match_iter_t* it);
int ink_strcmp(ink_str_t a, ink_str_t b);
bool ink_like(void* m, ink_str_t s);
bool ink_in_list(void* set, ink_str_t s);
ink_str_t ink_str_lower(ink_str_t s);
ink_str_t ink_unpack_str_key(const char* row, void* state);
ink_str_t ink_unpack_str_payload(const char* row, void* state);
double ink_min_f64(double a, double b);
double ink_max_f64(double a, double b);
int32_t ink_min_i32(int32_t a, int32_t b);
int32_t ink_max_i32(int32_t a, int32_t b);

/* The complete generated vectorized interpreter.
   Every function below was produced by wrapping one enumerated
   suboperator between a tuple-buffer source and sink and running
   the engine's single compilation stack (paper §V-A). */

// generated by the inkfuse compilation stack
void prim_agglookup(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  /* chunk-batched: one hash pass, one shard-lock acquire per (chunk, shard) */
  char** groups = ink_agg_find_or_create_batch(((ink_agg_state_t*)state[0])->table, (char**)in[0]->data, n);
  for (int64_t i = 0; i < n; ++i) {
    ((char**)out->cols[0]->data)[out->rows] = groups[i];
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_agglookupfixed_bool(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  /* chunk-batched single-column key fast path */
  char** groups = ink_agg_find_or_create_direct_batch(((ink_agg_state_t*)state[0])->table, (bool*)in[0]->data, n);
  for (int64_t i = 0; i < n; ++i) {
    ((char**)out->cols[0]->data)[out->rows] = groups[i];
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_agglookupfixed_date(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  /* chunk-batched single-column key fast path */
  char** groups = ink_agg_find_or_create_direct_batch(((ink_agg_state_t*)state[0])->table, (int32_t*)in[0]->data, n);
  for (int64_t i = 0; i < n; ++i) {
    ((char**)out->cols[0]->data)[out->rows] = groups[i];
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_agglookupfixed_f64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  /* chunk-batched single-column key fast path */
  char** groups = ink_agg_find_or_create_direct_batch(((ink_agg_state_t*)state[0])->table, (double*)in[0]->data, n);
  for (int64_t i = 0; i < n; ++i) {
    ((char**)out->cols[0]->data)[out->rows] = groups[i];
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_agglookupfixed_i32(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  /* chunk-batched single-column key fast path */
  char** groups = ink_agg_find_or_create_direct_batch(((ink_agg_state_t*)state[0])->table, (int32_t*)in[0]->data, n);
  for (int64_t i = 0; i < n; ++i) {
    ((char**)out->cols[0]->data)[out->rows] = groups[i];
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_agglookupfixed_i64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  /* chunk-batched single-column key fast path */
  char** groups = ink_agg_find_or_create_direct_batch(((ink_agg_state_t*)state[0])->table, (int64_t*)in[0]->data, n);
  for (int64_t i = 0; i < n; ++i) {
    ((char**)out->cols[0]->data)[out->rows] = groups[i];
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_aggupdate_count(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    *(int64_t*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off) += 1;
  }
}

// generated by the inkfuse compilation stack
void prim_aggupdate_count_if(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    bool p_2 = ((bool*)in[1]->data)[i];
    *(int64_t*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off) += p_2 ? 1 : 0;
  }
}

// generated by the inkfuse compilation stack
void prim_aggupdate_max_f64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    *(double*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off) = ink_max_f64(*(double*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off), p_2);
  }
}

// generated by the inkfuse compilation stack
void prim_aggupdate_max_i32(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    *(int32_t*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off) = ink_max_i32(*(int32_t*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off), p_2);
  }
}

// generated by the inkfuse compilation stack
void prim_aggupdate_min_f64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    *(double*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off) = ink_min_f64(*(double*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off), p_2);
  }
}

// generated by the inkfuse compilation stack
void prim_aggupdate_min_i32(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    *(int32_t*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off) = ink_min_i32(*(int32_t*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off), p_2);
  }
}

// generated by the inkfuse compilation stack
void prim_aggupdate_sum_f64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    *(double*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off) += p_2;
  }
}

// generated by the inkfuse compilation stack
void prim_aggupdate_sum_i64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    *(int64_t*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off) += p_2;
  }
}

// generated by the inkfuse compilation stack
void prim_case_bool_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    bool p_2 = ((bool*)in[1]->data)[i];
    bool p_3 = ((bool*)in[2]->data)[i];
    bool p_4 = (p_1 ? p_2 : p_3);
    ((bool*)out->cols[0]->data)[out->rows] = p_4;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_bool_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    bool p_2 = ((bool*)in[1]->data)[i];
    bool p_3 = (p_1 ? p_2 : ((ink_const_t*)state[0])->b);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_bool_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    bool p_2 = ((bool*)in[1]->data)[i];
    bool p_3 = (p_1 ? ((ink_const_t*)state[0])->b : p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_bool_kk(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    bool p_2 = (p_1 ? ((ink_const_t*)state[0])->b : ((ink_const_t*)state[1])->b);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_date_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    int32_t p_3 = ((int32_t*)in[2]->data)[i];
    int32_t p_4 = (p_1 ? p_2 : p_3);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_4;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_date_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    int32_t p_3 = (p_1 ? p_2 : ((ink_const_t*)state[0])->i32);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_date_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    int32_t p_3 = (p_1 ? ((ink_const_t*)state[0])->i32 : p_2);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_date_kk(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int32_t p_2 = (p_1 ? ((ink_const_t*)state[0])->i32 : ((ink_const_t*)state[1])->i32);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_f64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    double p_3 = ((double*)in[2]->data)[i];
    double p_4 = (p_1 ? p_2 : p_3);
    ((double*)out->cols[0]->data)[out->rows] = p_4;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_f64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    double p_3 = (p_1 ? p_2 : ((ink_const_t*)state[0])->f64);
    ((double*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_f64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    double p_3 = (p_1 ? ((ink_const_t*)state[0])->f64 : p_2);
    ((double*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_f64_kk(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    double p_2 = (p_1 ? ((ink_const_t*)state[0])->f64 : ((ink_const_t*)state[1])->f64);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_i32_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    int32_t p_3 = ((int32_t*)in[2]->data)[i];
    int32_t p_4 = (p_1 ? p_2 : p_3);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_4;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_i32_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    int32_t p_3 = (p_1 ? p_2 : ((ink_const_t*)state[0])->i32);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_i32_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    int32_t p_3 = (p_1 ? ((ink_const_t*)state[0])->i32 : p_2);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_i32_kk(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int32_t p_2 = (p_1 ? ((ink_const_t*)state[0])->i32 : ((ink_const_t*)state[1])->i32);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_i64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    int64_t p_3 = ((int64_t*)in[2]->data)[i];
    int64_t p_4 = (p_1 ? p_2 : p_3);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_4;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_i64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    int64_t p_3 = (p_1 ? p_2 : ((ink_const_t*)state[0])->i64);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_i64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    int64_t p_3 = (p_1 ? ((ink_const_t*)state[0])->i64 : p_2);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_i64_kk(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int64_t p_2 = (p_1 ? ((ink_const_t*)state[0])->i64 : ((ink_const_t*)state[1])->i64);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_str_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    ink_str_t p_2 = ((ink_str_t*)in[1]->data)[i];
    ink_str_t p_3 = ((ink_str_t*)in[2]->data)[i];
    ink_str_t p_4 = (p_1 ? p_2 : p_3);
    ((ink_str_t*)out->cols[0]->data)[out->rows] = p_4;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_str_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    ink_str_t p_2 = ((ink_str_t*)in[1]->data)[i];
    ink_str_t p_3 = (p_1 ? p_2 : ((ink_const_t*)state[0])->str);
    ((ink_str_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_str_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    ink_str_t p_2 = ((ink_str_t*)in[1]->data)[i];
    ink_str_t p_3 = (p_1 ? ((ink_const_t*)state[0])->str : p_2);
    ((ink_str_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_case_str_kk(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    ink_str_t p_2 = (p_1 ? ((ink_const_t*)state[0])->str : ((ink_const_t*)state[1])->str);
    ((ink_str_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cast_i32_f64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    double p_2 = ((double)p_1);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cast_i32_i64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int64_t p_2 = ((int64_t)p_1);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cast_i64_f64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    double p_2 = ((double)p_1);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cast_i64_i32(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t)p_1);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_date_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    bool p_3 = (p_1 == p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_date_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (p_1 == ((ink_const_t*)state[0])->i32);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_date_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i32 == p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_f64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    bool p_3 = (p_1 == p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_f64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    bool p_2 = (p_1 == ((ink_const_t*)state[0])->f64);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_f64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->f64 == p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_i32_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    bool p_3 = (p_1 == p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_i32_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (p_1 == ((ink_const_t*)state[0])->i32);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_i32_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i32 == p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_i64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    bool p_3 = (p_1 == p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_i64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    bool p_2 = (p_1 == ((ink_const_t*)state[0])->i64);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_i64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i64 == p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_str_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    ink_str_t p_2 = ((ink_str_t*)in[1]->data)[i];
    bool p_3 = (ink_strcmp(p_1, p_2) == 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_str_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = (ink_strcmp(p_1, ((ink_const_t*)state[0])->str) == 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_eq_str_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = (ink_strcmp(((ink_const_t*)state[0])->str, p_1) == 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_date_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    bool p_3 = (p_1 >= p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_date_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (p_1 >= ((ink_const_t*)state[0])->i32);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_date_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i32 >= p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_f64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    bool p_3 = (p_1 >= p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_f64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    bool p_2 = (p_1 >= ((ink_const_t*)state[0])->f64);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_f64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->f64 >= p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_i32_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    bool p_3 = (p_1 >= p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_i32_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (p_1 >= ((ink_const_t*)state[0])->i32);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_i32_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i32 >= p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_i64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    bool p_3 = (p_1 >= p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_i64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    bool p_2 = (p_1 >= ((ink_const_t*)state[0])->i64);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_i64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i64 >= p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_str_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    ink_str_t p_2 = ((ink_str_t*)in[1]->data)[i];
    bool p_3 = (ink_strcmp(p_1, p_2) >= 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_str_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = (ink_strcmp(p_1, ((ink_const_t*)state[0])->str) >= 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ge_str_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = (ink_strcmp(((ink_const_t*)state[0])->str, p_1) >= 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_date_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    bool p_3 = (p_1 > p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_date_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (p_1 > ((ink_const_t*)state[0])->i32);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_date_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i32 > p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_f64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    bool p_3 = (p_1 > p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_f64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    bool p_2 = (p_1 > ((ink_const_t*)state[0])->f64);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_f64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->f64 > p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_i32_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    bool p_3 = (p_1 > p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_i32_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (p_1 > ((ink_const_t*)state[0])->i32);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_i32_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i32 > p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_i64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    bool p_3 = (p_1 > p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_i64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    bool p_2 = (p_1 > ((ink_const_t*)state[0])->i64);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_i64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i64 > p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_str_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    ink_str_t p_2 = ((ink_str_t*)in[1]->data)[i];
    bool p_3 = (ink_strcmp(p_1, p_2) > 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_str_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = (ink_strcmp(p_1, ((ink_const_t*)state[0])->str) > 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_gt_str_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = (ink_strcmp(((ink_const_t*)state[0])->str, p_1) > 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_date_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    bool p_3 = (p_1 <= p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_date_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (p_1 <= ((ink_const_t*)state[0])->i32);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_date_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i32 <= p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_f64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    bool p_3 = (p_1 <= p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_f64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    bool p_2 = (p_1 <= ((ink_const_t*)state[0])->f64);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_f64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->f64 <= p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_i32_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    bool p_3 = (p_1 <= p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_i32_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (p_1 <= ((ink_const_t*)state[0])->i32);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_i32_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i32 <= p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_i64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    bool p_3 = (p_1 <= p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_i64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    bool p_2 = (p_1 <= ((ink_const_t*)state[0])->i64);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_i64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i64 <= p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_str_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    ink_str_t p_2 = ((ink_str_t*)in[1]->data)[i];
    bool p_3 = (ink_strcmp(p_1, p_2) <= 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_str_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = (ink_strcmp(p_1, ((ink_const_t*)state[0])->str) <= 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_le_str_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = (ink_strcmp(((ink_const_t*)state[0])->str, p_1) <= 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_date_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    bool p_3 = (p_1 < p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_date_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (p_1 < ((ink_const_t*)state[0])->i32);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_date_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i32 < p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_f64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    bool p_3 = (p_1 < p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_f64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    bool p_2 = (p_1 < ((ink_const_t*)state[0])->f64);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_f64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->f64 < p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_i32_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    bool p_3 = (p_1 < p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_i32_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (p_1 < ((ink_const_t*)state[0])->i32);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_i32_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i32 < p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_i64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    bool p_3 = (p_1 < p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_i64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    bool p_2 = (p_1 < ((ink_const_t*)state[0])->i64);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_i64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i64 < p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_str_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    ink_str_t p_2 = ((ink_str_t*)in[1]->data)[i];
    bool p_3 = (ink_strcmp(p_1, p_2) < 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_str_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = (ink_strcmp(p_1, ((ink_const_t*)state[0])->str) < 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_lt_str_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = (ink_strcmp(((ink_const_t*)state[0])->str, p_1) < 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_date_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    bool p_3 = (p_1 != p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_date_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (p_1 != ((ink_const_t*)state[0])->i32);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_date_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i32 != p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_f64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    bool p_3 = (p_1 != p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_f64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    bool p_2 = (p_1 != ((ink_const_t*)state[0])->f64);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_f64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->f64 != p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_i32_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    bool p_3 = (p_1 != p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_i32_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (p_1 != ((ink_const_t*)state[0])->i32);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_i32_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i32 != p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_i64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    bool p_3 = (p_1 != p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_i64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    bool p_2 = (p_1 != ((ink_const_t*)state[0])->i64);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_i64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    bool p_2 = (((ink_const_t*)state[0])->i64 != p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_str_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    ink_str_t p_2 = ((ink_str_t*)in[1]->data)[i];
    bool p_3 = (ink_strcmp(p_1, p_2) != 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_str_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = (ink_strcmp(p_1, ((ink_const_t*)state[0])->str) != 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_cmp_ne_str_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = (ink_strcmp(((ink_const_t*)state[0])->str, p_1) != 0);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_add_f64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    double p_3 = (p_1 + p_2);
    ((double*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_add_f64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = (p_1 + ((ink_const_t*)state[0])->f64);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_add_f64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = (((ink_const_t*)state[0])->f64 + p_1);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_add_i32_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    int32_t p_3 = (p_1 + p_2);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_add_i32_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = (p_1 + ((ink_const_t*)state[0])->i32);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_add_i32_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = (((ink_const_t*)state[0])->i32 + p_1);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_add_i64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    int64_t p_3 = (p_1 + p_2);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_add_i64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = (p_1 + ((ink_const_t*)state[0])->i64);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_add_i64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = (((ink_const_t*)state[0])->i64 + p_1);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_div_f64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    double p_3 = (p_1 / p_2);
    ((double*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_div_f64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = (p_1 / ((ink_const_t*)state[0])->f64);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_div_f64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = (((ink_const_t*)state[0])->f64 / p_1);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_div_i32_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    int32_t p_3 = (p_1 / p_2);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_div_i32_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = (p_1 / ((ink_const_t*)state[0])->i32);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_div_i32_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = (((ink_const_t*)state[0])->i32 / p_1);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_div_i64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    int64_t p_3 = (p_1 / p_2);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_div_i64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = (p_1 / ((ink_const_t*)state[0])->i64);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_div_i64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = (((ink_const_t*)state[0])->i64 / p_1);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_mul_f64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    double p_3 = (p_1 * p_2);
    ((double*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_mul_f64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = (p_1 * ((ink_const_t*)state[0])->f64);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_mul_f64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = (((ink_const_t*)state[0])->f64 * p_1);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_mul_i32_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    int32_t p_3 = (p_1 * p_2);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_mul_i32_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = (p_1 * ((ink_const_t*)state[0])->i32);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_mul_i32_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = (((ink_const_t*)state[0])->i32 * p_1);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_mul_i64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    int64_t p_3 = (p_1 * p_2);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_mul_i64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = (p_1 * ((ink_const_t*)state[0])->i64);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_mul_i64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = (((ink_const_t*)state[0])->i64 * p_1);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_sub_f64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    double p_3 = (p_1 - p_2);
    ((double*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_sub_f64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = (p_1 - ((ink_const_t*)state[0])->f64);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_sub_f64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = (((ink_const_t*)state[0])->f64 - p_1);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_sub_i32_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    int32_t p_3 = (p_1 - p_2);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_sub_i32_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = (p_1 - ((ink_const_t*)state[0])->i32);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_sub_i32_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = (((ink_const_t*)state[0])->i32 - p_1);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_sub_i64_cc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    int64_t p_3 = (p_1 - p_2);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_sub_i64_ck(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = (p_1 - ((ink_const_t*)state[0])->i64);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_expr_sub_i64_kc(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = (((ink_const_t*)state[0])->i64 - p_1);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_filtercopy_bool(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    bool p_2 = ((bool*)in[1]->data)[i];
    if (p_1) {
      bool p_3 = p_2;
      ((bool*)out->cols[0]->data)[out->rows] = p_3;
      out->rows++;
    }
  }
}

// generated by the inkfuse compilation stack
void prim_filtercopy_date(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    if (p_1) {
      int32_t p_3 = p_2;
      ((int32_t*)out->cols[0]->data)[out->rows] = p_3;
      out->rows++;
    }
  }
}

// generated by the inkfuse compilation stack
void prim_filtercopy_f64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    if (p_1) {
      double p_3 = p_2;
      ((double*)out->cols[0]->data)[out->rows] = p_3;
      out->rows++;
    }
  }
}

// generated by the inkfuse compilation stack
void prim_filtercopy_i32(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    if (p_1) {
      int32_t p_3 = p_2;
      ((int32_t*)out->cols[0]->data)[out->rows] = p_3;
      out->rows++;
    }
  }
}

// generated by the inkfuse compilation stack
void prim_filtercopy_i64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    if (p_1) {
      int64_t p_3 = p_2;
      ((int64_t*)out->cols[0]->data)[out->rows] = p_3;
      out->rows++;
    }
  }
}

// generated by the inkfuse compilation stack
void prim_filtercopy_ptr(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    char* p_2 = ((char**)in[1]->data)[i];
    if (p_1) {
      char* p_3 = p_2;
      ((char**)out->cols[0]->data)[out->rows] = p_3;
      out->rows++;
    }
  }
}

// generated by the inkfuse compilation stack
void prim_filtercopy_str(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    ink_str_t p_2 = ((ink_str_t*)in[1]->data)[i];
    if (p_1) {
      ink_str_t p_3 = p_2;
      ((ink_str_t*)out->cols[0]->data)[out->rows] = p_3;
      out->rows++;
    }
  }
}

// generated by the inkfuse compilation stack
void prim_inlist(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = ink_in_list(((ink_inlist_state_t*)state[0])->set, p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_joininsert(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  /* chunk-batched build: one shard-lock acquire per (chunk, shard) */
  ink_join_insert_batch(((ink_join_state_t*)state[0])->table, (char**)in[0]->data, n);
}

// generated by the inkfuse compilation stack
void prim_joinprobe_anti(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    if (!ink_join_exists(((ink_join_state_t*)state[0])->table, ink_row_key(p_1))) {
      char* p_2 = p_1;
      ((char**)out->cols[0]->data)[out->rows] = p_2;
      out->rows++;
    }
  }
}

// generated by the inkfuse compilation stack
void prim_joinprobe_inner(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    ink_match_iter_t it_p_3 = ink_join_lookup(((ink_join_state_t*)state[0])->table, ink_row_key(p_1));
    for (char* p_3 = ink_match_next(&it_p_3); p_3; p_3 = ink_match_next(&it_p_3)) {
      char* p_2 = p_1;
      ((char**)out->cols[0]->data)[out->rows] = p_3;
      ((char**)out->cols[1]->data)[out->rows] = p_2;
      out->rows++;
    }
  }
}

// generated by the inkfuse compilation stack
void prim_joinprobe_leftouter(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    ink_match_iter_t it_p_3 = ink_join_lookup(((ink_join_state_t*)state[0])->table, ink_row_key(p_1));
    bool p_4 = false;
    for (char* p_3 = ink_match_next(&it_p_3); p_3; p_3 = ink_match_next(&it_p_3)) {
      p_4 = true;
      char* p_2 = p_1;
      ((char**)out->cols[0]->data)[out->rows] = p_3;
      ((char**)out->cols[1]->data)[out->rows] = p_2;
      ((bool*)out->cols[2]->data)[out->rows] = p_4;
      out->rows++;
    }
    if (!p_4) { // unmatched probe tuple
      char* p_3 = 0;
      char* p_2 = p_1;
      ((char**)out->cols[0]->data)[out->rows] = p_3;
      ((char**)out->cols[1]->data)[out->rows] = p_2;
      ((bool*)out->cols[2]->data)[out->rows] = p_4;
      out->rows++;
    }
  }
}

// generated by the inkfuse compilation stack
void prim_joinprobe_semi(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    if (ink_join_exists(((ink_join_state_t*)state[0])->table, ink_row_key(p_1))) {
      char* p_2 = p_1;
      ((char**)out->cols[0]->data)[out->rows] = p_2;
      out->rows++;
    }
  }
}

// generated by the inkfuse compilation stack
void prim_like(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = ink_like(((ink_like_state_t*)state[0])->m, p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_logic_and(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    bool p_2 = ((bool*)in[1]->data)[i];
    bool p_3 = (p_1 && p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_logic_or(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    bool p_2 = ((bool*)in[1]->data)[i];
    bool p_3 = (p_1 || p_2);
    ((bool*)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_makerow(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    char* p_2 = ink_make_row(state[0], i);
    ((char**)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_not(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    bool p_2 = (!p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_notlike(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    bool p_2 = !ink_like(((ink_like_state_t*)state[0])->m, p_1);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_pack_key_bool(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    bool p_2 = ((bool*)in[1]->data)[i];
    *(bool*)(p_1 + 4 + ((ink_offset_t*)state[0])->off) = p_2;
    char* p_3 = p_1;
    ((char**)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_pack_key_date(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    *(int32_t*)(p_1 + 4 + ((ink_offset_t*)state[0])->off) = p_2;
    char* p_3 = p_1;
    ((char**)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_pack_key_f64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    *(double*)(p_1 + 4 + ((ink_offset_t*)state[0])->off) = p_2;
    char* p_3 = p_1;
    ((char**)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_pack_key_i32(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    *(int32_t*)(p_1 + 4 + ((ink_offset_t*)state[0])->off) = p_2;
    char* p_3 = p_1;
    ((char**)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_pack_key_i64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    *(int64_t*)(p_1 + 4 + ((ink_offset_t*)state[0])->off) = p_2;
    char* p_3 = p_1;
    ((char**)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_pack_payload_bool(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    bool p_2 = ((bool*)in[1]->data)[i];
    *(bool*)(p_1 + 4 + ((ink_offset_t*)state[0])->off + ink_row_key_len(p_1)) = p_2;
    char* p_3 = p_1;
    ((char**)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_pack_payload_date(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    *(int32_t*)(p_1 + 4 + ((ink_offset_t*)state[0])->off + ink_row_key_len(p_1)) = p_2;
    char* p_3 = p_1;
    ((char**)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_pack_payload_f64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    double p_2 = ((double*)in[1]->data)[i];
    *(double*)(p_1 + 4 + ((ink_offset_t*)state[0])->off + ink_row_key_len(p_1)) = p_2;
    char* p_3 = p_1;
    ((char**)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_pack_payload_i32(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int32_t p_2 = ((int32_t*)in[1]->data)[i];
    *(int32_t*)(p_1 + 4 + ((ink_offset_t*)state[0])->off + ink_row_key_len(p_1)) = p_2;
    char* p_3 = p_1;
    ((char**)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_pack_payload_i64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int64_t p_2 = ((int64_t*)in[1]->data)[i];
    *(int64_t*)(p_1 + 4 + ((ink_offset_t*)state[0])->off + ink_row_key_len(p_1)) = p_2;
    char* p_3 = p_1;
    ((char**)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_packstr_key(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    ink_str_t p_2 = ((ink_str_t*)in[1]->data)[i];
    char* p_3 = ink_append_str(p_1, state[0], p_2);
    ((char**)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_packstr_payload(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    ink_str_t p_2 = ((ink_str_t*)in[1]->data)[i];
    char* p_3 = ink_append_str(p_1, state[0], p_2);
    ((char**)out->cols[0]->data)[out->rows] = p_3;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_prefetch(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  /* chunk-batched ROF staging: bloom-filtered bucket touches */
  ink_join_prefetch_batch(((ink_join_state_t*)state[0])->table, (char**)in[0]->data, n);
}

// generated by the inkfuse compilation stack
void prim_sealkey(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    char* p_2 = ink_seal_key(state[0], p_1);
    ((char**)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_strlower(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    ink_str_t p_2 = ink_str_lower(p_1);
    ((ink_str_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_tscan_bool(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    bool p_1 = ((bool*)in[0]->data)[i];
    bool p_2 = p_1;
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_tscan_date(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = p_1;
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_tscan_f64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    double p_1 = ((double*)in[0]->data)[i];
    double p_2 = p_1;
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_tscan_i32(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int32_t p_1 = ((int32_t*)in[0]->data)[i];
    int32_t p_2 = p_1;
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_tscan_i64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    int64_t p_1 = ((int64_t*)in[0]->data)[i];
    int64_t p_2 = p_1;
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_tscan_ptr(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    char* p_2 = p_1;
    ((char**)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_tscan_str(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    ink_str_t p_1 = ((ink_str_t*)in[0]->data)[i];
    ink_str_t p_2 = p_1;
    ((ink_str_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_unpack_key_bool(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    bool p_2 = *(bool*)(p_1 + 4 + ((ink_offset_t*)state[0])->off);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_unpack_key_date(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int32_t p_2 = *(int32_t*)(p_1 + 4 + ((ink_offset_t*)state[0])->off);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_unpack_key_f64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    double p_2 = *(double*)(p_1 + 4 + ((ink_offset_t*)state[0])->off);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_unpack_key_i32(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int32_t p_2 = *(int32_t*)(p_1 + 4 + ((ink_offset_t*)state[0])->off);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_unpack_key_i64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int64_t p_2 = *(int64_t*)(p_1 + 4 + ((ink_offset_t*)state[0])->off);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_unpack_payload_bool(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    bool p_2 = *(bool*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off);
    ((bool*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_unpack_payload_date(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int32_t p_2 = *(int32_t*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_unpack_payload_f64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    double p_2 = *(double*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off);
    ((double*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_unpack_payload_i32(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int32_t p_2 = *(int32_t*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off);
    ((int32_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_unpack_payload_i64(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    int64_t p_2 = *(int64_t*)(p_1 + ink_payload_off(p_1) + ((ink_offset_t*)state[0])->off);
    ((int64_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_unpackstr_key(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    ink_str_t p_2 = ink_unpack_str_key(p_1, state[0]);
    ((ink_str_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}

// generated by the inkfuse compilation stack
void prim_unpackstr_payload(ink_vec_t** in, ink_chunk_t* out, void** state, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    char* p_1 = ((char**)in[0]->data)[i];
    ink_str_t p_2 = ink_unpack_str_payload(p_1, state[0]);
    ((ink_str_t*)out->cols[0]->data)[out->rows] = p_2;
    out->rows++;
  }
}
